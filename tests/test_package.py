"""The package's public names, resolved on first access, and what loading it imports."""

import os
import subprocess
import sys

import pytest

import skewlab

PUBLIC = [
    "AtomTooSmall", "Collision", "ConstructionLog", "Cycle",
    "DiscreteSpace", "DomainTooSmall", "EmpiricalDistribution", "ErgodicityWitness",
    "ExtensionSystem", "FactorResult", "FiniteGroup", "FullGroupWitness",
    "GeneratorCheckFailed", "GeneratorRecord", "GroupTooLarge",
    "HypothesisDistance", "ImproveResult", "ImprovementReport", "Infeasible",
    "InfeasibleTemplate", "IterationSchedule", "ModelName", "NameSpace",
    "NameWorkTooLarge", "NoGoodOrbit", "NotMultiple", "NotReachable", "OutOfDomain",
    "ParseError", "PartialSpeedup", "PreconditionViolated", "RegularityCertificate",
    "RegularityRefusal", "RegularityRejected", "SampleFamily", "ScheduleInfeasible",
    "SkewlabError", "SpaceMismatch", "TowerInfeasible", "Twist", "ValidationError",
    "WindowSystem", "apply_speedup", "bootstrap_regular", "broken_fraction",
    "build_cycles", "build_model_name", "check_extension_ergodic", "check_regular",
    "cocycle_product", "complete_speedup", "copy_partition", "cyclic",
    "ergodicity_certificate", "exhaust_samples", "from_tables", "improve",
    "kantorovich", "ladder", "name_distribution", "power_domain", "run_factor",
    "run_isomorphism", "sample_onto", "seed_from_orbit", "speedup_name_distribution",
    "total_extension_witness", "tower", "trivial", "twist", "twist_size",
    "verify_factor_map",
]


def test_public_names_are_listed_and_resolve():
    assert len(PUBLIC) == 72
    assert sorted(skewlab.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(skewlab))
    for name in PUBLIC:
        obj = getattr(skewlab, name)
        assert obj.__name__ == name
        assert obj.__module__.startswith("skewlab.")


def test_submodules_resolve_and_unknown_names_raise():
    assert skewlab.names.NAME_WORK_LIMIT == 2**21
    assert skewlab.groups.cyclic is skewlab.cyclic
    with pytest.raises(AttributeError, match="no_such_name"):
        skewlab.no_such_name


def test_no_module_loads_dataclasses_or_inspect():
    # a fresh interpreter: records are defined without generated code, and
    # dataclasses (with inspect, ast, dis and tokenize) cost 10-13 ms to import
    probe = (
        "import sys\n"
        "import skewlab.cli, skewlab.improvement, skewlab.driver, skewlab.matching\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(skewlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
