"""Finite sampling lemmas of the tower construction.

Two tools: spreading a finite domain onto a target distribution with
bounded error, and exhausting a set by disjoint samples that share one
atom template.  The improvement step does not call them; they stand as
checked finite versions of the lemmas.  Everything is deterministic;
ties break at the lowest index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .distributions import EmpiricalDistribution
from .errors import (
    AtomTooSmall,
    DomainTooSmall,
    InfeasibleTemplate,
    PreconditionViolated,
    ValidationError,
)
from .records import Record


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
