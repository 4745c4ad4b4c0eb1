"""Finite combinatorics of sparse generic structures.

A graph with sparsity coefficient m is measured by the count
m * |vertices| - |edges|; the package computes closures, dimensions, and
decompositions under that count, solves map-extension problems with
verifiable certificates, and grows finite approximations of the generic
structure for the hereditarily nonnegative class.
"""

from types import ModuleType as _ModuleType

from .amalgam import AmalgamResult, AmalgamSpec, free_amalgam, verify_strong_pair
from .approximation import (
    ApproximationChain,
    add_generic_point,
    build_approximation,
    extend_partial_iso,
    pattern_catalog,
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

# the names imported above, sorted, leaving out the submodules they bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
