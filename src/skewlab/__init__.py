"""Finite skew products, their speedups, and name-statistics machinery.

Public names resolve on first access (PEP 562), so a program loads only
the modules whose names it uses.
"""

import importlib

_EXPORTS = {
    "distributions": (
        "DiscreteSpace", "EmpiricalDistribution", "NameSpace", "kantorovich",
    ),
    "driver": (
        "ConstructionLog", "FactorResult", "FullGroupWitness", "GeneratorRecord",
        "IterationSchedule", "complete_speedup", "copy_partition",
        "ergodicity_certificate", "run_factor", "run_isomorphism", "seed_from_orbit",
        "total_extension_witness", "verify_factor_map",
    ),
    "errors": (
        "AtomTooSmall", "Collision", "DomainTooSmall", "GeneratorCheckFailed",
        "GroupTooLarge", "HypothesisDistance", "Infeasible", "InfeasibleTemplate",
        "NameWorkTooLarge", "NoGoodOrbit", "NotMultiple", "NotReachable", "OutOfDomain",
        "ParseError", "PreconditionViolated", "RegularityRejected", "ScheduleInfeasible",
        "SkewlabError", "SpaceMismatch", "TowerInfeasible", "ValidationError",
    ),
    "groups": ("FiniteGroup", "cyclic", "from_tables", "trivial"),
    "improvement": (
        "Cycle", "ImproveResult", "ImprovementReport", "ModelName", "WindowSystem",
        "bootstrap_regular", "build_cycles", "build_model_name", "check_regular", "improve",
    ),
    "matching": ("SampleFamily", "exhaust_samples", "sample_onto"),
    "systems": (
        "ErgodicityWitness", "ExtensionSystem", "PartialSpeedup", "RegularityCertificate",
        "RegularityRefusal", "Twist", "apply_speedup", "check_extension_ergodic",
        "cocycle_product", "name_distribution", "power_domain",
        "speedup_name_distribution", "twist", "twist_size",
    ),
    "towers": ("broken_fraction", "ladder", "tower"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "names")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines name, and keep the name here."""
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _MODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
