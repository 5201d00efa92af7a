"""Error taxonomy shared across the package.

Every refusal the library can produce is a subclass of SkewlabError, so
callers (and the command line driver) can distinguish "the construction
refused, and said why" from a genuine bug.  Refusals carry the binding
quantity in their message.  open_unit is the one range check every
tolerance goes through.
"""

from fractions import Fraction


class SkewlabError(Exception):
    """Base class for every structured refusal."""


class ValidationError(SkewlabError):
    """An object failed its own consistency checks at construction time."""


class ParseError(SkewlabError):
    """Serialized input did not describe a valid object."""


class GroupTooLarge(SkewlabError):
    """A group spec exceeds the order limit of exact table validation."""


class SpaceMismatch(SkewlabError):
    """Two distributions do not live on the same metric space."""


class OutOfDomain(SkewlabError):
    """A partial map was applied to a point it is not defined on."""


class DomainTooSmall(SkewlabError):
    """A finite domain is too coarse to carry the requested approximation."""


class AtomTooSmall(SkewlabError):
    """A distribution atom is below the granularity the sampling rule needs."""


class PreconditionViolated(SkewlabError):
    """A lemma-level hypothesis failed before the construction started."""


class InfeasibleTemplate(SkewlabError):
    """The exhaustion template requests more blocks of a type than exist."""


class Infeasible(SkewlabError):
    """A combinatorial construction has no solution under the given bounds."""


class NotMultiple(SkewlabError):
    """A height or length is not the required exact multiple."""


class HypothesisDistance(SkewlabError):
    """The two name distributions start out too far apart to improve."""


class RegularityRejected(SkewlabError):
    """The input certificate fails re-measurement, so the step refuses."""


class ScheduleInfeasible(SkewlabError):
    """No window/cycle schedule satisfies the stated bounds."""


class Collision(SkewlabError):
    """Two constructed orbits claim the same point."""


class NotReachable(SkewlabError):
    """The ergodicity witness search cannot connect the required sets."""


class TowerInfeasible(SkewlabError):
    """No tower base with the requested height, coverage and spread exists."""


class NoGoodOrbit(SkewlabError):
    """No orbit segment matches the target statistics well enough."""


class GeneratorCheckFailed(SkewlabError):
    """The iterated partition does not separate points, so no isomorphism."""


def open_unit(name: str, value) -> Fraction:
    """value as a Fraction; ValidationError unless it sits in (0,1)."""
    value = Fraction(value)
    if not 0 < value < 1:
        raise ValidationError("%s must sit in (0,1)" % name)
    return value
