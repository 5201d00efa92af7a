"""Finite versions of the tower construction's lemmas.

Four tools: spreading a finite domain onto a target distribution with
bounded error, exhausting a set by disjoint samples that share one atom
template, weaving stage samples through ordered windows into cycles, and
full-group witnesses that carry most of one set into another along a
total speedup's orbit.  No command calls them; they stand as checked
finite versions of the lemmas.  Everything is deterministic; ties break
at the lowest index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .distributions import EmpiricalDistribution
from .errors import (
    AtomTooSmall,
    Collision,
    DomainTooSmall,
    InfeasibleTemplate,
    NotReachable,
    PreconditionViolated,
    ValidationError,
)
from .records import Record
from .systems import PartialSpeedup


def sample_onto(
    atoms: Sequence[Hashable],
    nu: EmpiricalDistribution,
    domain: Sequence[Hashable],
    zeta: Fraction,
    *,
    min_mass: Fraction | None = None,
    block_length: int = 0,
) -> dict:
    """Map the domain onto the atoms with distribution error below zeta.

    Cumulative weights are rounded down to multiples of 1/|domain| and
    the gaps between consecutive rounded endpoints become atom counts.
    min_mass and block_length tighten the domain-size precondition to
    1/|domain| < min(min_mass, zeta / 2**block_length) when provided.
    """
    atoms = sorted(atoms)
    points = sorted(domain)
    if not atoms:
        raise ValidationError("no atoms to sample onto")
    if not points:
        raise DomainTooSmall("empty domain")
    for key in nu.support():
        if key not in set(atoms):
            raise ValidationError("distribution charges a point outside the atom set")
    big_k = len(points)
    bound = Fraction(zeta, 2**block_length)
    if min_mass is not None:
        bound = min(bound, Fraction(min_mass))
    if not Fraction(1, big_k) < bound:
        raise DomainTooSmall(
            "domain of size %d cannot resolve tolerance %s" % (big_k, bound)
        )
    for key in atoms:
        if nu.weight(key) <= Fraction(1, big_k):
            raise AtomTooSmall("atom %r has mass at most 1/%d" % (key, big_k))
    counts = []
    cum = Fraction(0)
    prev_floor = 0
    for key in atoms:
        cum += nu.weight(key)
        here = (cum * big_k).numerator // (cum * big_k).denominator
        counts.append(here - prev_floor)
        prev_floor = here
    out: dict = {}
    pos = 0
    for key, c in zip(atoms, counts):
        for _ in range(c):
            out[points[pos]] = key
            pos += 1
    return out


class SampleFamily(Record):
    """Disjoint equal-size subsets of a ground set sharing exact atom counts."""

    ground: tuple
    sample_size: int
    samples: tuple[tuple, ...]
    template: tuple[tuple[Hashable, int], ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for s in self.samples:
            if len(s) != self.sample_size:
                raise ValidationError("sample of wrong size")
            for z in s:
                if z in seen:
                    raise ValidationError("samples are not disjoint")
                seen.add(z)
        if sum(c for _, c in self.template) != self.sample_size:
            raise ValidationError("template counts do not add up to the sample size")

    def covered(self) -> set:
        return {z for s in self.samples for z in s}

    def leftover(self) -> tuple:
        hit = self.covered()
        return tuple(z for z in self.ground if z not in hit)

    def leftover_mass(self) -> Fraction:
        return Fraction(len(self.leftover()), len(self.ground))


def exhaust_samples(
    ground: Sequence[Hashable],
    atom_of: Mapping[Hashable, Hashable],
    sample_size: int,
    epsilon: Fraction,
    template: Mapping[Hashable, int],
    *,
    check_bounds: bool = True,
) -> SampleFamily:
    """Greedy maximal family of disjoint samples realizing the template.

    With the size and closeness preconditions the greedy family leaves
    at most an epsilon fraction of the ground set uncovered.  Passing
    check_bounds=False skips the precondition gate but still builds the
    family honestly.
    """
    ground = tuple(sorted(ground))
    if not ground:
        raise ValidationError("empty ground set")
    if sample_size < 1:
        raise ValidationError("sample size must be positive")
    tpl = tuple(sorted((k, int(c)) for k, c in template.items() if c))
    if any(c < 0 for _, c in tpl):
        raise ValidationError("template counts must be nonnegative")
    if sum(c for _, c in tpl) != sample_size:
        raise ValidationError("template counts must add up to the sample size")
    pools: dict = {}
    for z in ground:
        pools.setdefault(atom_of[z], []).append(z)
    for key, _ in tpl:
        if key not in pools:
            raise InfeasibleTemplate("template names the empty atom %r" % (key,))
    if check_bounds:
        if sample_size > len(ground):
            raise PreconditionViolated("sample size exceeds the ground set")
        min_mass = min(Fraction(len(p), len(ground)) for p in pools.values())
        need = Fraction(sample_size, 1) / (Fraction(epsilon) * min_mass / 2)
        if not len(ground) > need:
            raise PreconditionViolated(
                "ground set of %d points is not above the size bound %s"
                % (len(ground), need)
            )
        gap = Fraction(0)
        for key, pool in pools.items():
            want = Fraction(dict(tpl).get(key, 0), sample_size)
            gap += abs(want - Fraction(len(pool), len(ground)))
        if not gap / 2 < Fraction(epsilon) * min_mass / 2:
            raise PreconditionViolated(
                "template is %s away from the ground distribution" % (gap / 2)
            )
    cursor = {key: 0 for key in pools}
    samples = []
    while True:
        pick = []
        feasible = True
        for key, c in tpl:
            pool = pools[key]
            if cursor[key] + c > len(pool):
                feasible = False
                break
            pick.extend(pool[cursor[key] : cursor[key] + c])
        if not feasible:
            if not samples:
                raise InfeasibleTemplate("template counts exceed some atom on the first sample")
            break
        for key, c in tpl:
            cursor[key] += c
        samples.append(tuple(sorted(pick)))
    family = SampleFamily(ground, sample_size, tuple(samples), tpl)
    if check_bounds and family.leftover_mass() > Fraction(epsilon):
        raise PreconditionViolated(
            "greedy family left %s uncovered despite the bounds" % family.leftover_mass()
        )
    return family


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
# ergodicity certificates


class FullGroupWitness(Record):
    """Piecewise powers carrying most of one set into another."""

    pieces: tuple[tuple[int, int, int], ...]
    matched: Fraction


def ergodicity_certificate(
    speedup: PartialSpeedup,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    epsilon: Fraction,
) -> tuple[FullGroupWitness, ...]:
    """Full-group witnesses carrying (1-epsilon) of each first set into the second.

    Walks the speedup's base orbit from each point of the first set to
    the first unused point of the second; pieces are (point, power,
    target) with pairwise distinct targets.
    """
    epsilon = Fraction(epsilon)
    size = speedup.parent.size
    if any(k == 0 for k in speedup.exponent):
        raise ValidationError("certificate needs a total speedup")
    nxt, _ = speedup.step_table
    out = []
    for ci, cj in pairs:
        ci = sorted(set(ci))
        cj_set = set(cj)
        if not ci or not cj_set:
            raise ValidationError("certificate sets must be nonempty")
        used: set[int] = set()
        pieces = []
        for x in ci:
            y = x
            power = 0
            while True:
                if y in cj_set and y not in used:
                    used.add(y)
                    pieces.append((x, power, y))
                    break
                y = nxt[y]
                power += 1
                if power > size:
                    break
        matched = Fraction(len(pieces), len(ci))
        if not matched >= 1 - epsilon:
            raise NotReachable(
                "only %s of the first set reaches the second within the orbit" % matched
            )
        out.append(FullGroupWitness(tuple(pieces), matched))
    return tuple(out)
