"""The distribution improvement engine.

Given a regular partial speedup whose n-name statistics are close to a
target extension, one improvement step builds a longer-block speedup of
the same extension whose n1-name statistics are close to the target,
changing the partition and fiber offsets only slightly.  The new orbit
is woven through the existing tower's ladder blocks and copies a model
name read off the target; a twist absorbs the group-coordinate
discrepancy exactly, so the copied name is replicated coordinate by
coordinate on the constructed orbit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Sequence

from .distributions import EmpiricalDistribution, NameSpace, kantorovich
from .errors import (
    Collision,
    HypothesisDistance,
    Infeasible,
    RegularityRejected,
    ScheduleInfeasible,
    ValidationError,
    open_unit,
)
from .groups import FiniteGroup
from .names import prefix_products, total_variation
from .records import Record
from .systems import (
    ExtensionSystem,
    PartialSpeedup,
    RegularityCertificate,
    RegularityRefusal,
    Twist,
    check_extension_ergodic,
    name_distribution,
    speedup_name_counts,
    speedup_name_distribution,
    step_increments,
    twist,
    twist_size,
)
from .towers import broken_fraction, ladder, tower


# ---------------------------------------------------------------------------
# window systems and cycles


class WindowSystem(Record):
    """Ordered equal-length windows inside a long segment.

    Window s occupies positions starts[s] .. starts[s]+length-1; the
    gap condition keeps distinct windows from overlapping.
    """

    length: int
    span: int
    starts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValidationError("window length must be positive")
        prev = None
        for u in self.starts:
            if u < 0 or u + self.length > self.span:
                raise ValidationError("window does not fit in the span")
            if prev is not None and u - prev < self.length:
                raise ValidationError("window starts must increase by at least the length")
            prev = u

    @property
    def count(self) -> int:
        return len(self.starts)

    def window(self, s: int, j: int) -> int:
        if not (0 <= j < self.length):
            raise ValidationError("offset outside the window")
        return self.starts[s] + j


class Cycle(Record):
    """One weave through the windows: p-term stages at every pass offset.

    stages maps (l, j) to the chosen in-window positions for phases
    i in [p]; the absolute position of phase i is window jp+l+i at that
    offset.  Stage maps are increasing because windows are ordered.
    """

    p: int
    index: int
    stages: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def absolute(self, windows: WindowSystem) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
        out = []
        for (l, j), pos in self.stages:
            out.append(((l, j), tuple(windows.window(j * self.p + l + i, pos[i]) for i in range(self.p))))
        return tuple(out)


def build_cycles(
    windows: WindowSystem,
    samples: Mapping[int, Sequence[Sequence[int]]],
    p: int,
) -> tuple[Cycle, ...]:
    """Weave every stage sample into cycles, one cycle per sample index.

    samples[s][t][i] is the in-window position used by cycle t at phase
    i whenever some stage visits window s at that phase.  Positions must
    be disjoint inside each window across (t, i); a repeat raises
    Collision.  Interior windows are visited exactly p times per cycle.
    """
    w = windows.count
    if p < 1 or p > w:
        raise ValidationError("need 1 <= p <= window count")
    depths = {len(samples[s]) for s in range(w)}
    if len(depths) != 1:
        raise ValidationError("every window needs the same number of sample stages")
    rounds = depths.pop()
    for s in range(w):
        used: set[int] = set()
        for t in range(rounds):
            if len(samples[s][t]) != p:
                raise ValidationError("stage sample must list one position per phase")
            for i in range(p):
                pos = samples[s][t][i]
                if not (0 <= pos < windows.length):
                    raise ValidationError("sample position outside the window")
                if pos in used:
                    raise Collision("window %d position %d used twice" % (s, pos))
                used.add(pos)
    # windows are disjoint and ordered and each (window, position) pair is
    # used once, so absolute positions are distinct and increase along a stage
    cycles = []
    for t in range(rounds):
        stages = []
        for l in range(p):
            for j in range((w - l) // p):
                pos = tuple(samples[j * p + l + i][t][i] for i in range(p))
                stages.append(((l, j), pos))
        cycles.append(Cycle(p, t, tuple(stages)))
    return tuple(cycles)


# ---------------------------------------------------------------------------
# regularity


def _discrete(group: FiniteGroup) -> bool:
    """Whether every distance of the group, and so of its names, is 0 or 1.

    Name distances then take class counts (names.total_variation) in
    place of name distributions and the transport solver.
    """
    return group.int_metric[0] == 1


def check_regular(
    speedup: PartialSpeedup,
    pbar: Sequence[int],
    n: int,
    delta: Fraction,
    *,
    k_bound: int | None = None,
) -> RegularityCertificate | RegularityRefusal:
    """Verify the five conditions of an (n, delta)-regular speedup.

    Condition order: tower structure, exponent bound, fiberwise name
    purity, ladder block distributions, domain mass.  The first failed
    condition is returned as a refusal with a measurement; success
    returns a certificate with the measured margins and the Dom(S^n)
    n-name distribution.  The outcome is kept on the speedup, so the
    first improvement step reads the certificate the bootstrap issued
    instead of measuring it again.
    """
    if n < 1:
        raise ValidationError("block length must be positive")
    delta = open_unit("delta", delta)
    if len(pbar) != speedup.size:
        raise ValidationError("partition must cover the base")
    key = (tuple(pbar), n, delta, k_bound)
    if key not in speedup.regularity:
        speedup.regularity[key] = _measure_regularity(speedup, *key)
    return speedup.regularity[key]


def _measure_regularity(
    speedup: PartialSpeedup,
    pbar: tuple[int, ...],
    n: int,
    delta: Fraction,
    k_bound: int | None = None,
    full: EmpiricalDistribution | Counter | None = None,
    ids: Sequence[int] | None = None,
) -> RegularityCertificate | RegularityRefusal:
    """The five conditions, on the Dom(S^n) n-name statistics full when given.

    full is the name distribution, or under a discrete metric the class
    counts under ids, the speedup walk's n-classes.  The improvement
    step's output check hands its own in and keeps no outcome: no later
    call repeats it, and a kept one lives with its step.
    """
    ext = speedup.parent
    discrete = _discrete(ext.group)
    columns, why = tower(speedup)
    if why is not None:
        return RegularityRefusal("condition 1", why)
    height = len(columns[0])
    k_seen = speedup.max_exponent()
    if k_bound is not None and k_seen > k_bound:
        return RegularityRefusal(
            "condition 2", "exponent %d exceeds the bound %d" % (k_seen, k_bound),
            Fraction(k_seen),
        )
    # the name of (base, e) up every column; the fibre of e stands for
    # all, since names from (x, h) are those from (x, e) right-translated
    # by h and the metric is bi-invariant
    walk = speedup.walk(pbar)
    names = {walk.name(column[0], height) for column in columns}
    # right translation is injective, so every fibre carries as many
    # distinct tower names as the fibre of e
    if len(names) != 1:
        return RegularityRefusal(
            "condition 3", "base fibers at 0 carry %d distinct tower names" % len(names)
        )
    if height % n != 0:
        return RegularityRefusal(
            "condition 4", "height %d is not a multiple of %d" % (height, n)
        )
    if full is None and discrete:
        ids = walk.classes(n)
        full = speedup_name_counts(speedup, pbar, n, ids)
    elif full is None:
        full = speedup_name_distribution(speedup, pbar, n)
    # every column carries the one name, so one column's rungs serve all;
    # rungs read the name itself, so they carry the offset accumulated
    # along the column
    (name,) = names
    if discrete:
        # a rung is the class of its first point's canonical name, right-translated by
        # that offset; full counts the fibre of e, which each of the m fibres repeats
        column = columns[0]
        counts = Counter((ids[column[i]], name[i][1]) for i in range(0, height, n))
        gap = total_variation(
            counts, {(c, h): k for c, k in full.items() for h in ext.group.elements()}
        )
    else:
        counts = Counter(name[i : i + n] for i in range(0, height, n))
        gap = kantorovich(EmpiricalDistribution.from_counts(NameSpace(ext.group, n), counts), full)
    if not gap < delta:
        return RegularityRefusal(
            "condition 4",
            "ladder distribution at base %d is %s away" % (columns[0][0], gap),
            gap,
        )
    mass = speedup.domain_mass()
    if not mass > 1 - delta:
        return RegularityRefusal(
            "condition 5", "domain mass %s not above %s" % (mass, 1 - delta), mass
        )
    return RegularityCertificate(
        n=n,
        delta=delta,
        columns=columns,
        domain_mass=mass,
        max_exponent=k_seen,
        ladder_distance=gap,
        names=None if discrete else full,
    )


def bootstrap_regular(
    source: ExtensionSystem,
    pbar: Sequence[int],
    n: int,
    delta: Fraction,
    epsilon: Fraction,
) -> tuple[PartialSpeedup, RegularityCertificate]:
    """Initial regular speedup: the rotation trimmed to a constant height.

    The whole cycle is one orbit block, so grouping into n-blocks only
    trims the top partial block; the change against the full rotation
    is the trimmed mass plus the single open top point.
    """
    if n < 1:
        raise ValidationError("block length must be positive")
    delta = open_unit("delta", delta)
    epsilon = open_unit("epsilon", epsilon)
    size = source.size
    height = n * (size // n)
    if height < n:
        raise Infeasible("cycle of %d points cannot host blocks of %d" % (size, n))
    if height == n:
        # the top point is open, so no point of the one block has n steps left
        raise Infeasible("bootstrap height %d equals n = %d, so Dom(S^n) is empty" % (height, n))
    exponent = tuple(1 if x < height - 1 else 0 for x in range(size))
    speedup = PartialSpeedup(source, exponent, 1)
    change = Fraction(size - height + 1, size)
    if not change < epsilon / 2:
        raise Infeasible(
            "trim changes mass %s, not below epsilon/2 = %s" % (change, epsilon / 2)
        )
    cert = check_regular(speedup, pbar, n, delta)
    if isinstance(cert, RegularityRefusal):
        raise Infeasible("bootstrap failed %s: %s" % (cert.condition, cert.detail))
    return speedup, cert


# ---------------------------------------------------------------------------
# model names


class ModelName(Record):
    """Long template name read off the target with measured certificates.

    labels and groups give the (P, c)-coordinates of the template;
    window_distance and block_distance compare its n1-statistics to the
    target's stationary ones, reference (after averaging over right
    translates).  Under a discrete metric the distances come from class
    counts and reference is None.
    """

    labels: tuple[int, ...]
    groups: tuple[int, ...]
    n1: int
    start: int
    window_distance: Fraction
    block_distance: Fraction
    reference: EmpiricalDistribution | None
    _uncompared = ("reference",)


def _choose_start(target: ExtensionSystem, ids: Sequence[int], length: int, n1: int) -> int:
    """First position whose template balances rung names against windows.

    The comparison mirrors regularity condition 4 on the output tower:
    aligned n1-rung names from the candidate template against all its
    n1-windows averaged over right group translates.  Balancing here is
    what spreads the accumulated fiber offsets evenly over the rungs.

    ids are the target's n1-window classes.  A rung name is its class
    and the group coordinate of its first point; the averaged windows
    give each of the m translates of a class C its window count, so with
    R rungs and W windows, 2*R*W*m times the half-L1 distance is
    2*m*R*W - 2 * sum over rung names of min(r*W*m, C*R), r being the
    name's rung count.  The start x0 + n1 shares all rungs of x0 but one
    and all windows but n1, so each residue class mod n1 is walked with
    only what changes touched: the outgoing and incoming rung names when
    they differ, and the window counts of the rung classes when the
    n1-block that leaves the windows differs from the one that enters,
    which a prefix count of the positions t with ids[t] != ids[t + W]
    tells.  A window count is read off its class's sorted positions, so
    the work is O(N + n1 * R) plus O(log N) per rung class at each start
    whose block changes.
    """
    size = target.size
    m = target.group.order
    rungs = length // n1
    windows = length - n1 + 1
    wm = windows * m
    laps = -(-(size + length) // size)
    positions: dict[int, list[int]] = {}  # class -> its points, in order
    for x, c in enumerate(ids):
        positions.setdefault(c, []).append(x)
    ids = list(ids) * laps
    # P[t + N] = P[t] + P[N], so the prefix table gives the group track at every t
    p = target.prefix
    track = [(g + k * p[size]) % m for k in range(laps) for g in p[:size]]
    # the block [x, x + n1) leaves the windows as [x + W, x + W + n1) enters them,
    # which changes a count only if moved[x + n1] > moved[x]
    moved = list(accumulate((ids[t] != ids[t + windows] for t in range(size)), initial=0))

    def count(c: int, x: int) -> int:
        """Windows of class c among the W from the start x < N: its points
        below x + W, laps included, less those below x."""
        at_c = positions[c]
        y = x + windows
        return y // size * len(at_c) + bisect_left(at_c, y % size) - bisect_left(at_c, x)

    shared = [0] * size  # sum of min(r*W*m, C*R) at every start
    for first in range(min(n1, size)):
        rows: dict[int, dict[int, int]] = {}  # rung class -> group coordinate -> rung count
        for y in range(first, first + length, n1):
            row = rows.setdefault(ids[y], {})
            row[track[y]] = row.get(track[y], 0) + 1
        caps = {c: count(c, first) * rungs for c in rows}  # rung class -> C*R

        def part(c: int) -> int:
            return sum(min(r * wm, caps[c]) for r in rows[c].values())

        total = sum(map(part, rows))
        for x0 in range(first, size, n1):
            shared[x0] = total
            nxt = x0 + n1
            if nxt >= size:
                break
            if moved[nxt] != moved[x0]:
                for c in rows:
                    cap = count(c, nxt) * rungs
                    if cap != caps[c]:
                        total -= part(c)
                        caps[c] = cap
                        total += part(c)
            c_out, w_out = ids[x0], track[x0]
            c_in, w_in = ids[x0 + length], track[x0 + length]
            if c_out != c_in or w_out != w_in:
                row, cap = rows[c_out], caps[c_out]
                r = row[w_out]
                total += min((r - 1) * wm, cap) - min(r * wm, cap)
                row[w_out] = r - 1
                if c_in not in rows:
                    rows[c_in], caps[c_in] = {}, count(c_in, nxt) * rungs
                row, cap = rows[c_in], caps[c_in]
                r = row.get(w_in, 0)
                total += min((r + 1) * wm, cap) - min(r * wm, cap)
                row[w_in] = r + 1
    # the least distance is the largest shared mass; ties go to the first start
    return max(range(size), key=shared.__getitem__)


def build_model_name(target: ExtensionSystem, n1: int, *, length: int) -> ModelName:
    """Template name of the given length with measured block statistics.

    The template is the target's own extension name from a start point
    chosen to balance rung names against window names.  Window and
    disjoint-block distances are measured against the target's
    stationary n1-distribution.  Each result is kept on the target
    under (n1, length), so the steps of a loop build one model name.
    """
    key = (n1, length)
    if key in target.model_names:
        return target.model_names[key]
    if n1 < 1:
        raise ValidationError("block length must be positive")
    if length < n1 or length % n1 != 0:
        raise ValidationError("length must be a positive multiple of n1")
    if not check_extension_ergodic(target).ergodic:
        raise ValidationError("target extension is not ergodic")
    walk = target.walk()
    ids = walk.classes(n1)
    discrete = _discrete(target.group)
    statistics, distance = walk.distribution, kantorovich
    if discrete:
        statistics, distance = walk.counts, total_variation
    # the widest n1-statistics of the model name: its NameWorkTooLarge precedes the start search
    reference = statistics(n1, range(target.size), ids)
    x0 = _choose_start(target, ids, length, n1)
    labels, groups = zip(*walk.name(x0, length))

    def averaged(starts):
        # template windows are target windows at x0 + t, right-translated
        return statistics(n1, [(x0 + t) % target.size for t in starts], ids)

    window_distance = distance(averaged(range(length - n1 + 1)), reference)
    block_distance = distance(averaged(range(0, length, n1)), reference)
    target.model_names[key] = ModelName(
        labels=labels,
        groups=groups,
        n1=n1,
        start=x0,
        window_distance=window_distance,
        block_distance=block_distance,
        reference=None if discrete else reference,
    )
    return target.model_names[key]


# ---------------------------------------------------------------------------
# the improvement step


class ImprovementReport(Record):
    """Measured outcome of one improvement step, recomputed from outputs."""

    n: int
    delta: Fraction
    n1: int
    delta1: Fraction
    epsilon: Fraction
    hypothesis_distance: Fraction
    partition_drift: Fraction
    twist_size: Fraction
    broken_mass: Fraction
    name_distance: Fraction
    good_set_fraction: Fraction
    good_set_density: Fraction
    regular: bool
    regularity_note: str
    ladder_distance: Fraction | None
    domain_mass: Fraction
    max_exponent: int
    ladder_blocks: int
    model_window_distance: Fraction
    model_block_distance: Fraction
    model_length: int
    model_start: int
    rotation: int
    rotation_mismatches: int

    def conclusions(self) -> dict[str, bool]:
        return {
            "regular": self.regular,
            "partition_drift": self.partition_drift < self.epsilon,
            "twist_size": self.twist_size < self.epsilon,
            "broken_mass": self.broken_mass < self.delta1,
            "name_distance": self.name_distance < self.delta1,
            "good_set_fraction": self.good_set_fraction > 1 - self.epsilon,
        }


class ImproveResult(Record):
    """speedup is the output map on the input's extension; twisted is the
    same map on the twisted extension, the speedup the next step consumes."""

    speedup: PartialSpeedup
    twisted: PartialSpeedup
    labels: tuple[int, ...]
    alpha: Twist
    report: ImprovementReport
    chain: tuple[int, ...]
    model: ModelName


def _good_rungs(
    group: FiniteGroup,
    track: Sequence[tuple[int, int]],
    n1: int,
    a1: frozenset,
    a2: frozenset,
    bound: Fraction,
) -> int:
    """Count (rung, h) whose n1-orbit from (rung, h) sits in a1 x a2 above bound.

    track is the (point, offset) walk of one orbit, and a rung starts
    every n1 entries.  If a rung starts at (z_r, w_r), the orbit from
    (z_r, w_r * h) is at (z, w * h) wherever the track is at (z, w), and
    w_r * h runs over G as h does.
    """
    good = 0
    for r in range(0, len(track), n1):
        hits = [0] * group.order
        for z, w in track[r : r + n1]:
            if z in a1:
                for h in group.elements():
                    if group.mul[w][h] in a2:
                        hits[h] += 1
        good += sum(1 for c in hits if Fraction(c, n1) > bound)
    return good


def _best_rotation(
    group: FiniteGroup,
    track: Sequence[int],
    q: Sequence[int],
    labels: Sequence[int],
    groups: Sequence[int],
    stride: int,
) -> tuple[int, int]:
    """(mismatches, s) of the best chain rotation s in range(0, len(track), stride).

    Rotation s reads the cyclic label track from s against labels and
    the offsets q[s+t] * q[s]^-1 against groups; ties go to the first s.
    With h = q[s] the offset matches exactly when q[s+t] = groups[t] * h,
    so every point gets a one-hot slot of its label and q value, the
    template for h one of its label and groups[t] * h, and the matches
    of a rotation are one popcount of (chain >> s slots) & template (the
    shift-and of Baeza-Yates and Gonnet): O(len(track) / stride) big-int
    operations.  q needs len(track) + len(labels) - 1 entries; a track
    label outside labels matches nothing.
    """
    total, length, m = len(track), len(labels), group.order
    symbols = sorted(set(labels))
    label_bits = {a: "0" * (len(symbols) - 1 - i) + "1" + "0" * i for i, a in enumerate(symbols)}
    group_bits = ["0" * (m - 1 - g) + "1" + "0" * g for g in range(m)]
    blank = "0" * len(symbols)
    width = len(symbols) + m

    def packed(slots: list[str]) -> int:
        # slot i holds bits i*width .. (i+1)*width - 1, so the string starts at the last
        return int("".join(reversed(slots)), 2)

    reads = list(track) * 2
    chain = packed(
        [group_bits[q[i]] + label_bits.get(reads[i], blank) for i in range(total + length - 1)]
    )
    templates: dict[int, int] = {}
    best = (-1, 0)
    for s in range(0, total, stride):
        h = q[s]
        if h not in templates:
            bits = [group_bits[(g + h) % m] + label_bits[a] for a, g in zip(labels, groups)]
            templates[h] = packed(bits)
        hits = ((chain >> s * width) & templates[h]).bit_count()
        if hits > best[0]:
            best = (hits, s)
    return 2 * length - best[0], best[1]


def _plan_chain(
    current: PartialSpeedup,
    pbar: Sequence[int],
    blocks: Sequence[tuple[int, ...]],
    model: ModelName,
    length: int,
) -> tuple[tuple[int, ...], list[int], list[int], int, int]:
    """(chain, gaps, offsets, rotation, mismatches) of the chain the step copies onto.

    The chain is the ladder blocks read cyclically from the rotation that
    best matches the template; gaps are the exponents along it, the last
    0, and offsets the group coordinates of its walk from (chain[0], e).
    """
    ext = current.parent
    group = ext.group
    n = len(blocks[0])
    # the ladder blocks in start order form one cyclic chain; each
    # block's last step is its seam to the next block
    points = [z for block in blocks for z in block]
    total = len(points)
    gaps = [current.exponent[z] for z in points]
    for j in range(n - 1, total, n):
        gaps[j] = (points[(j + 1) % total] - points[j]) % ext.size or ext.size
    # group increments per step are forced by the parent skewing; rotation
    # r reads the chain from s = r*n with offsets q[s+t] * q[s]^-1
    q = prefix_products(group, step_increments(ext, points, gaps))
    score, start = _best_rotation(group, [pbar[z] for z in points], q, model.labels, model.groups, n)
    chain = tuple((points * 2)[start : start + length])
    # the chain's last point is the open top of the one output column
    gaps = (gaps * 2)[start : start + length - 1] + [0]
    offsets = [(g - q[start]) % group.order for g in q[start : start + length]]
    return chain, gaps, offsets, start // n, score


def _joint_counts(
    target: ExtensionSystem, speedup: PartialSpeedup, labels: Sequence[int], n: int
) -> tuple[Counter, Counter, list[int]]:
    """Class counts of the target's n-names and of the speedup's over Dom(S^n).

    One classes pass over the target walk and the speedup walk laid end
    to end makes the two comparable; the speedup walk's part of the ids
    comes back as well.  Each count keeps its NameWorkTooLarge refusal.
    """
    joint = target.walk().joint(speedup.walk(labels))
    ids = joint.classes(n)
    own = ids[target.size :]
    reference = joint.counts(n, range(target.size), ids)
    return reference, speedup_name_counts(speedup, labels, n, own), own


def improve(
    target: ExtensionSystem,
    current: PartialSpeedup,
    pbar: Sequence[int],
    n: int,
    delta: Fraction,
    n1: int,
    delta1: Fraction,
    a1: Sequence[int],
    a2: Sequence[int],
    epsilon: Fraction,
    *,
    strict: bool = False,
) -> ImproveResult:
    """One improvement step: copy a model name onto the tower's blocks.

    Three phases: check the input and the hypothesis distance, plan the
    chain of ladder blocks (_plan_chain), and build the output on it.
    The twist is defined so the adjusted group coordinates replicate the
    template exactly, and leftover points receive a junk label outside
    the target alphabet.  The replication check and the speedup's
    injectivity check guard any plan.
    """
    if n < 1 or n1 < 1:
        raise ValidationError("block lengths must be positive")
    if n1 % n != 0:
        raise ValidationError("n1 must be a multiple of n")
    delta = open_unit("delta", delta)
    delta1 = open_unit("delta1", delta1)
    epsilon = open_unit("epsilon", epsilon)
    ext = current.parent
    group = ext.group
    pbar = tuple(pbar)
    a1set = frozenset(a1)
    a2set = frozenset(a2)
    if not a2set:
        raise ValidationError("the group window must be nonempty")
    if not a1set <= frozenset(range(ext.size)) or not a2set <= frozenset(range(group.order)):
        raise ValidationError("the rectangle must sit in the base and the group")

    cert = check_regular(current, pbar, n, delta)
    if isinstance(cert, RegularityRefusal):
        raise RegularityRejected(
            "input speedup failed %s: %s" % (cert.condition, cert.detail)
        )

    discrete = _discrete(group)
    if discrete:
        hyp = total_variation(*_joint_counts(target, current, pbar, n)[:2])
    else:
        hyp = kantorovich(name_distribution(target, n), cert.names)
    if not hyp < delta:
        raise HypothesisDistance("n-name distance %s is not below %s" % (hyp, delta))

    blocks = ladder(cert.columns, n)
    capacity = len(blocks) * n
    length = (capacity // n1) * n1
    if length < n1:
        raise ScheduleInfeasible(
            "tower holds %d ladder points, below one block of %d" % (capacity, n1)
        )
    if length == n1:
        # the output chain's last point is open, so no point has n1 steps left
        raise ScheduleInfeasible(
            "tower holds %d ladder points, one block of %d: the output has no %d-name start"
            % (capacity, n1, n1)
        )

    model = build_model_name(target, n1, length=length)
    for what, distance in (("window", model.window_distance), ("block", model.block_distance)):
        if strict and not distance < delta1 / 100:
            raise ScheduleInfeasible(
                "%s distance %s misses the strict budget %s" % (what, distance, delta1 / 100)
            )
    chain, gaps, offsets, rotation, mismatches = _plan_chain(current, pbar, blocks, model, length)

    # template names start at 0, so the twist moves each offset onto the template's
    # group; points off the chain keep 0 and get a junk label outside the alphabet
    exponent = [0] * ext.size
    labels1 = [max(target.alphabet()) + 1] * ext.size
    alpha_values = [0] * ext.size
    for z, k, w, a, g in zip(chain, gaps, offsets, model.labels, model.groups):
        exponent[z], labels1[z], alpha_values[z] = k, a, (g - w) % group.order
    k_max = max(max(gaps), 1)
    speedup1 = PartialSpeedup(ext, tuple(exponent), k_max)
    labels1 = tuple(labels1)
    alpha = Twist(tuple(alpha_values))

    # all output statistics are read off the twisted extension, which is
    # the system the next step consumes
    twisted = twist(ext, alpha)
    speedup1t = PartialSpeedup(twisted, tuple(exponent), k_max)

    # one walk of the twisted orbit from (chain[0], e), labelled by the
    # points themselves, serves the replication check and the good set
    track = speedup1t.walk(range(ext.size)).name(chain[0], length)
    for t, ((z, w), a, g) in enumerate(zip(track, model.labels, model.groups)):
        if (labels1[z], w) != (a, g):
            raise Collision("orbit coordinate %d does not replicate the template" % t)

    if discrete:
        reference, output_names, output_ids = _joint_counts(target, speedup1t, labels1, n1)
        cert1 = _measure_regularity(
            speedup1t, labels1, n1, delta1, full=output_names, ids=output_ids
        )
        name_distance = total_variation(reference, output_names)
    else:
        output_names = speedup_name_distribution(speedup1t, labels1, n1)
        cert1 = _measure_regularity(speedup1t, labels1, n1, delta1, full=output_names)
        name_distance = kantorovich(model.reference, output_names)
    regular = isinstance(cert1, RegularityCertificate)

    density = Fraction(len(a1set), ext.size) * Fraction(len(a2set), group.order)
    # the output tower is the one chain; its rungs start every n1 points
    good = _good_rungs(group, track, n1, a1set, a2set, density - epsilon)

    report = ImprovementReport(
        n=n,
        delta=delta,
        n1=n1,
        delta1=delta1,
        epsilon=epsilon,
        hypothesis_distance=hyp,
        partition_drift=Fraction(sum(1 for x, a in enumerate(labels1) if pbar[x] != a), ext.size),
        twist_size=twist_size(alpha, group),
        broken_mass=broken_fraction(blocks, current.exponent, exponent),
        name_distance=name_distance,
        good_set_fraction=Fraction(good, length // n1 * group.order),
        good_set_density=density,
        regular=regular,
        regularity_note="" if regular else "%s: %s" % (cert1.condition, cert1.detail),
        ladder_distance=cert1.ladder_distance if regular else cert1.measured,
        domain_mass=speedup1.domain_mass(),
        max_exponent=speedup1.max_exponent(),
        ladder_blocks=len(blocks),
        model_window_distance=model.window_distance,
        model_block_distance=model.block_distance,
        model_length=length,
        model_start=model.start,
        rotation=rotation,
        rotation_mismatches=mismatches,
    )
    return ImproveResult(
        speedup=speedup1,
        twisted=speedup1t,
        labels=labels1,
        alpha=alpha,
        report=report,
        chain=chain,
        model=model,
    )
