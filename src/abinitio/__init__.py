"""Finite combinatorics of sparse generic structures.

A graph with sparsity coefficient m is measured by the count
m * |vertices| - |edges|; the package computes closures, dimensions, and
decompositions under that count, solves map-extension problems with
verifiable certificates, and grows finite approximations of the generic
structure for the hereditarily nonnegative class.
"""

from .amalgam import AmalgamResult, AmalgamSpec, free_amalgam, verify_strong_pair
from .approximation import (
    ApproximationChain,
    add_generic_point,
    build_approximation,
    extend_partial_iso,
    pattern_catalog,
    realize_extension,
)
from .errors import (
    AbinitioError,
    AmalgamError,
    CoefficientMismatch,
    ConstructionFailed,
    InvalidMap,
    OutsideK0,
    UnknownVertex,
)
from .extension import (
    EPCertificate,
    EPProblem,
    OrbitOrder,
    build_base_stage,
    build_level_stage,
    ep_extend,
    orbit_orders,
    validate_problem,
)
from .graph import (
    Embedding,
    EmbeddingPlan,
    Graph,
    PartialIso,
    canonical_json,
    components,
    connected_subsets,
    count_cross_edges,
    export_dot,
    fresh_name,
)
from .predimension import (
    ClosureResult,
    OrientationWitness,
    closure,
    delta,
    delta_rel,
    dimension,
    geometric_closure_bounded,
    is_in_k0,
    is_self_sufficient,
    orientation_witness,
    strong_embeddings,
)
from .verifier import VerificationReport, verify_certificate
from .zero_decomposition import (
    BaseWitness,
    ComponentLevels,
    ZeroDecomposition,
    base_attachment_pairs,
    connected_zero_sets,
    decompose,
    hull,
    is_zero_algebraic,
    is_zero_minimally_algebraic,
    level_chain,
    minimally_closed_sets,
    mu_count,
    uniform_algebraicity_report,
)

__all__ = [
    "AbinitioError",
    "AmalgamError",
    "AmalgamResult",
    "AmalgamSpec",
    "ApproximationChain",
    "BaseWitness",
    "ClosureResult",
    "CoefficientMismatch",
    "ComponentLevels",
    "ConstructionFailed",
    "EPCertificate",
    "EPProblem",
    "Embedding",
    "EmbeddingPlan",
    "Graph",
    "InvalidMap",
    "OrbitOrder",
    "OrientationWitness",
    "OutsideK0",
    "PartialIso",
    "UnknownVertex",
    "VerificationReport",
    "ZeroDecomposition",
    "add_generic_point",
    "base_attachment_pairs",
    "build_approximation",
    "build_base_stage",
    "build_level_stage",
    "canonical_json",
    "closure",
    "components",
    "connected_subsets",
    "connected_zero_sets",
    "count_cross_edges",
    "decompose",
    "delta",
    "delta_rel",
    "dimension",
    "ep_extend",
    "export_dot",
    "extend_partial_iso",
    "free_amalgam",
    "fresh_name",
    "geometric_closure_bounded",
    "hull",
    "is_in_k0",
    "is_self_sufficient",
    "is_zero_algebraic",
    "is_zero_minimally_algebraic",
    "level_chain",
    "minimally_closed_sets",
    "mu_count",
    "orbit_orders",
    "orientation_witness",
    "pattern_catalog",
    "realize_extension",
    "strong_embeddings",
    "uniform_algebraicity_report",
    "validate_problem",
    "verify_certificate",
    "verify_strong_pair",
]

__version__ = "0.1.0"
