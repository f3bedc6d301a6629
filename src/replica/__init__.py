"""Self-replicating Borwein-like algorithms in arbitrary-precision decimal.

Quadratic, cubic and quartic iteration families with a free parameter w
compute pi and Gamma-function values; the same machinery at w = 0 yields
rapid algorithms for the perimeter of an ellipse.  A certified truncated
series evaluator provides independent oracle values for every limit.
"""

from .algorithms import (
    CUBIC,
    QUADRATIC,
    QUARTIC,
    AlgorithmKind,
    IterationState,
    RunResult,
    measure_orders,
    postprocess_constant,
    replication_invariant,
    run_borwein,
    run_ellipse,
    usable_error_logs,
)
from .errors import (
    DivergenceError,
    DomainError,
    InsufficientTraceError,
    NonConvergenceError,
    PrecisionInsufficientError,
    ReplicaError,
    SlowConvergenceError,
    UnknownConstantError,
    UnsupportedExponentError,
    UnsupportedParameterError,
)
from .precision import (
    PrecisionContext,
    make_context,
    matching_digits,
    nth_root,
    pow_rational,
    to_sig_digits,
)
from .series import (
    SeriesSpec,
    couple_product,
    ellipse_factor,
    evaluate_series,
)
from .transforms import (
    cubic_descend,
    cubic_replicate,
    quad_descend,
    quad_replicate,
    quartic_descend,
    quartic_replicate,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmKind",
    "CUBIC",
    "DivergenceError",
    "DomainError",
    "InsufficientTraceError",
    "IterationState",
    "NonConvergenceError",
    "PrecisionContext",
    "PrecisionInsufficientError",
    "QUADRATIC",
    "QUARTIC",
    "ReplicaError",
    "RunResult",
    "SeriesSpec",
    "SlowConvergenceError",
    "UnknownConstantError",
    "UnsupportedExponentError",
    "UnsupportedParameterError",
    "couple_product",
    "cubic_descend",
    "cubic_replicate",
    "ellipse_factor",
    "evaluate_series",
    "make_context",
    "matching_digits",
    "measure_orders",
    "nth_root",
    "postprocess_constant",
    "pow_rational",
    "quad_descend",
    "quad_replicate",
    "quartic_descend",
    "quartic_replicate",
    "replication_invariant",
    "run_borwein",
    "run_ellipse",
    "to_sig_digits",
    "usable_error_logs",
]
