"""Self-replicating Borwein-like algorithms in arbitrary-precision decimal.

Quadratic, cubic and quartic iteration families with a free parameter w
compute pi and Gamma-function values; the same machinery at w = 0 yields
rapid algorithms for the perimeter of an ellipse.  A certified truncated
series evaluator provides independent oracle values for every limit.

The package root exports the library API that the README documents; every
other name lives in its own module: ``replica.precision``, ``replica.series``,
``replica.transforms`` and ``replica.algorithms``.
"""

from .algorithms import (
    CUBIC,
    QUADRATIC,
    QUARTIC,
    AlgorithmKind,
    RunResult,
    postprocess_constant,
    replication_invariant,
    run_borwein,
    run_ellipse,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    ReplicaError,
    SlowConvergenceError,
    UnsupportedParameterError,
)
from .precision import PrecisionContext, make_context
from .series import couple_product, ellipse_factor

__version__ = "0.1.0"

__all__ = [
    "AlgorithmKind",
    "QUADRATIC",
    "CUBIC",
    "QUARTIC",
    "PrecisionContext",
    "make_context",
    "RunResult",
    "run_borwein",
    "run_ellipse",
    "postprocess_constant",
    "replication_invariant",
    "couple_product",
    "ellipse_factor",
    "ReplicaError",
    "DomainError",
    "UnsupportedParameterError",
    "SlowConvergenceError",
    "NonConvergenceError",
]
