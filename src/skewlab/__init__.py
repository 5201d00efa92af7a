"""Finite skew products, their speedups, and name-statistics machinery."""

from .distributions import (
    BlockSpace,
    DiscreteSpace,
    EmpiricalDistribution,
    GroupSpace,
    LabelGroupSpace,
    kantorovich,
)
from .driver import (
    ConstructionLog,
    FactorMap,
    FactorResult,
    FullGroupWitness,
    GeneratorRecord,
    IterationSchedule,
    bootstrap_regular,
    complete_speedup,
    copy_partition,
    ergodicity_certificate,
    run_factor,
    run_isomorphism,
    seed_from_orbit,
    total_extension_witness,
    verify_factor_map,
)
from .errors import (
    AtomTooSmall,
    Collision,
    DomainTooSmall,
    GeneratorCheckFailed,
    GroupTooLarge,
    HypothesisDistance,
    Infeasible,
    InfeasibleTemplate,
    NameWorkTooLarge,
    NoGoodOrbit,
    NotMultiple,
    NotReachable,
    OutOfDomain,
    ParseError,
    PreconditionViolated,
    RegularityRejected,
    ScheduleInfeasible,
    SkewlabError,
    SpaceMismatch,
    TowerInfeasible,
    ValidationError,
)
from .groups import FiniteGroup, cyclic, from_tables, trivial
from .improvement import (
    Cycle,
    ImproveResult,
    ImprovementReport,
    ModelName,
    WindowSystem,
    build_cycles,
    build_model_name,
    check_regular,
    improve,
)
from .matching import (
    SampleFamily,
    exhaust_samples,
    sample_onto,
)
from .systems import (
    ErgodicityWitness,
    ExtensionSystem,
    PartialSpeedup,
    RegularityCertificate,
    RegularityRefusal,
    Twist,
    apply_speedup,
    check_extension_ergodic,
    cocycle_product,
    name_distribution,
    power_domain,
    speedup_name_distribution,
    twist,
    twist_size,
)
from .towers import (
    broken_fraction,
    ladder,
    tower,
)

__all__ = [name for name in dir() if not name.startswith("_")]
