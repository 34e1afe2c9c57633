"""Bregman proximal gradient solvers with extrapolation, plus the Poisson
linear inverse and sparse quadratic inverse applications and a benchmark
harness."""

from .errors import BregoptError, DomainError, NumericalError, ValidationError
from .kernels import (
    BurgKernel,
    EuclideanKernel,
    Kernel,
    QuarticKernel,
    cubic_root_scale,
)
from .problems import (
    CompositeObjective,
    L1Term,
    NonsmoothTerm,
    SmoothTerm,
    ZeroTerm,
)
from .checks import check_smad
from .solvers import (
    EXIT_MAX_ITERATIONS,
    EXIT_MODES,
    EXIT_NUMERICAL_FAILURE,
    EXIT_TOLERANCE,
    IterationRecord,
    SolveResult,
    SolverConfig,
    bpg_solve,
    bpge_solve,
    line_search_beta,
)

__all__ = [
    "BregoptError", "DomainError", "NumericalError", "ValidationError",
    "Kernel", "EuclideanKernel", "BurgKernel", "QuarticKernel",
    "cubic_root_scale",
    "CompositeObjective", "SmoothTerm", "NonsmoothTerm", "ZeroTerm",
    "L1Term", "check_smad",
    "EXIT_TOLERANCE", "EXIT_MAX_ITERATIONS", "EXIT_NUMERICAL_FAILURE",
    "EXIT_MODES", "SolverConfig", "IterationRecord", "SolveResult",
    "line_search_beta", "bpge_solve", "bpg_solve",
]

__version__ = "0.1.0"
