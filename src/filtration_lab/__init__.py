"""Exact-rational stochastic calculus on finite event trees.

Trees carry filtrations as refining leaf partitions; processes, jump
measures, constraint systems, representation bases, and enlargement
diagnostics all work in exact rational arithmetic, so every identity in the
library is checked exactly or not at all. Process values are held as int
numerators over one denominator per time slice; every value a caller sees
is a Fraction.
"""

from types import ModuleType as _Module

from .calculus import (
    CompensatorTable,
    Decomposition,
    JumpFunction,
    JumpMeasure,
    Process,
    bracket,
    compensate_measure,
    decompose,
    dot_integral,
    dual_predictable_projection,
    jump_measure,
    predictable_bracket,
    project_onto_jump_measure,
    star_integral,
)
from .constraint import (
    AccessibleConversion,
    AccessibleSlot,
    ConstraintSystem,
    ConversionCertificate,
    accessible_star_to_dot,
    constraint_martingales,
    detect_fpcc,
    expand_integrand,
    jump_supports_disjoint,
    l1_gauge,
    slot_events_disjoint,
    solve_accessible_K,
    solve_inaccessible_K,
    star_to_dot,
    value_slots_from_measure,
)
from .enlargement import (
    AtomAudit,
    Deflator,
    DeflatorSearch,
    DriftResult,
    KernelCertificate,
    MultiplierSolution,
    ViabilityReport,
    check_compensator_abs_continuity,
    check_full_viability,
    covariance_kernel,
    default_viability_family,
    doleans_exponential,
    drift_operator,
    find_deflator,
    g_star_consistency,
    max_abs_increment,
    solve_drift_multiplier,
    verify_drift_multiplier,
    verify_fbd,
)
from .errors import FiltrationLabError
from .representation import (
    MrpReport,
    PartitionWitness,
    ReconstructedBasis,
    check_mrp,
    conditional_multiplicity,
    jump_constraint,
    orthogonalize,
    reconstruct_accessible,
    representation_coefficient,
    single_jump_coefficient,
    translate_integrand,
)
from .scenario import Scenario, load, loads, save, scenario_hash
from .tree import (
    Atom,
    Enlargement,
    FilteredTree,
    Filtration,
    StoppingTime,
    as_filtration,
    build_tree,
    conditional_expectation,
    enlarge,
    random_tree,
)

__version__ = "0.1.0"

# public names only: the submodules bound by the imports above stay out
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
