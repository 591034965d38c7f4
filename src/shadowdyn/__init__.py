"""shadowdyn: exact pseudo-orbit, shadowing, chain-recurrence and entropy
machinery on finitely represented dynamical systems.

Systems are either subshifts of finite type acting on eventually periodic
bi-infinite sequences, or finite nets with exact rational metrics and a
sampled self-map.  Every verdict (shadowability, chain classes, separation
counts, horseshoe certificates, measure approximation bounds) is computed
in rational arithmetic and stamped with the resolution it was verified at.
"""

from .approx import ApproximationResult, approximate_by_positive_entropy_ergodic, orbit_measure
from .builders import (
    CylinderPartition,
    ExtensionSpace,
    LayeredSpace,
    crossing_pseudo_orbit,
    dense_shadowable_example,
    extension_builder,
    fig1_circle,
    reverse_base_pseudo_orbit,
    verify_extension_claims,
)
from .chain import (
    ChainClassDecomposition,
    ChainGraph,
    build_chain_graph,
    chain_class,
    chain_recurrent_set,
    decomposition,
    is_equicontinuous_at_resolution,
    nearest_minimal_point,
)
from .entropy import (
    SeparatedSetResult,
    entropy_estimate,
    expansivity_witness,
    max_separated_cylinders,
    separated_set,
)
from .finitize import CylinderNet
from .horseshoe import (
    HorseshoeCertificate,
    LoopFamily,
    build_certificate,
    find_loop_family,
    make_family,
    nonminimal_recipe,
    sensitive_recipe,
)
from .measures import (
    BlockConcatenation,
    EmpiricalMeasure,
    TestFunctionFamily,
    dstar,
    verify_empirical_lemma,
    verify_measure_approx,
)
from .pseudo_orbits import (
    PseudoOrbit,
    PseudoOrbitError,
    concatenate,
    connect,
    orbit_segment,
    repeat,
    validate,
)
from .shadow_search import ShadowWitness, find_shadow, shadows
from .shadowing import (
    ShadowabilityReport,
    chain_class_shadowability,
    h_class_two_sided_shadowing,
    has_shadowing_at_resolution,
    is_positively_shadowable_at,
    uniform_delta_for_set,
)
from .systems import (
    BudgetExceeded,
    NetSystem,
    SymbolicPoint,
    SymbolicSystem,
    circle_net,
    dyadic_radius,
    symbolic_distance,
)
from .words import SubstitutionLanguage, screen_minimality

__all__ = [
    "ApproximationResult", "BlockConcatenation", "BudgetExceeded",
    "ChainClassDecomposition", "ChainGraph", "CylinderNet",
    "CylinderPartition", "EmpiricalMeasure", "ExtensionSpace",
    "HorseshoeCertificate", "LayeredSpace", "LoopFamily", "NetSystem",
    "PseudoOrbit", "PseudoOrbitError", "SeparatedSetResult",
    "ShadowWitness", "ShadowabilityReport", "SubstitutionLanguage",
    "SymbolicPoint", "SymbolicSystem", "TestFunctionFamily",
    "approximate_by_positive_entropy_ergodic", "build_certificate",
    "build_chain_graph", "chain_class", "chain_class_shadowability",
    "chain_recurrent_set", "circle_net", "concatenate", "connect",
    "crossing_pseudo_orbit", "decomposition", "dense_shadowable_example",
    "dstar", "dyadic_radius", "entropy_estimate",
    "expansivity_witness", "extension_builder", "fig1_circle",
    "find_loop_family", "find_shadow", "h_class_two_sided_shadowing",
    "has_shadowing_at_resolution", "is_equicontinuous_at_resolution",
    "is_positively_shadowable_at", "make_family", "max_separated_cylinders",
    "nearest_minimal_point", "nonminimal_recipe", "orbit_measure",
    "orbit_segment", "repeat",
    "reverse_base_pseudo_orbit", "screen_minimality", "sensitive_recipe",
    "separated_set", "shadows", "symbolic_distance",
    "uniform_delta_for_set", "validate", "verify_empirical_lemma",
    "verify_extension_claims", "verify_measure_approx",
]
