"""Exact combinatorics of tight fusion frame sequences.

Decides which weakly decreasing rank sequences admit tight fusion frames,
counts and constructs the integer certificate matrices behind them, applies
spatial and Naimark dualities at both the sequence and certificate level,
enumerates maximal sequences, and realizes frames numerically as explicit
projection matrices.
"""

from .configmat import (
    ConfigMatrix,
    ValidationReport,
    count_configs,
    find_config,
    hook_completion_feasible,
    iter_configs,
    mu_chain,
    okada_product,
    render_tableaux,
    tableau_cells,
    validate_config,
)
from .dualities import (
    alpha_reduce,
    config_naimark_dual,
    config_spatial_dual,
    decompose_block,
    naimark_dual,
    recur_strip,
    spatial_dual,
)
from .partitions import (
    as_partition,
    conjugate,
    contains,
    count_equal_parts,
    dominance_leq,
    dual_in_rectangle,
    majorization_chain,
    partitions_of,
)
from .realize import (
    ProjectionSet,
    VerificationReport,
    realize_tff,
    spectrum_chain,
    two_projection_sum,
    validate_multiplicity,
    verify_tff,
)
from .tffcore import (
    decide,
    enumerate_tff,
    fillmore_feasible,
    first3_check,
    hook_type_decide,
    k_block_bound,
    maximal_elements,
    unique_maximal,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigMatrix",
    "ProjectionSet",
    "ValidationReport",
    "VerificationReport",
    "alpha_reduce",
    "as_partition",
    "config_naimark_dual",
    "config_spatial_dual",
    "conjugate",
    "contains",
    "count_equal_parts",
    "count_configs",
    "decide",
    "decompose_block",
    "dominance_leq",
    "dual_in_rectangle",
    "enumerate_tff",
    "fillmore_feasible",
    "find_config",
    "first3_check",
    "hook_completion_feasible",
    "hook_type_decide",
    "iter_configs",
    "k_block_bound",
    "majorization_chain",
    "maximal_elements",
    "mu_chain",
    "naimark_dual",
    "okada_product",
    "partitions_of",
    "realize_tff",
    "recur_strip",
    "render_tableaux",
    "spatial_dual",
    "spectrum_chain",
    "tableau_cells",
    "two_projection_sum",
    "unique_maximal",
    "validate_config",
    "validate_multiplicity",
    "verify_tff",
]
