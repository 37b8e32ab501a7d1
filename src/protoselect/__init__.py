"""Weighted prototype selection and criticism under the MMD objective."""

from .errors import (
    DegenerateDataError,
    GuardError,
    InputError,
    NumericError,
    ProtoSelectError,
    SolverError,
)
from .kernel import (
    Dataset,
    KernelMatrix,
    KernelSpec,
    MeanMap,
    kernel_eval,
    kernel_matrix,
    mean_map,
    median_bandwidth,
)
from .nnqp import (
    SolverConfig,
    SupportSet,
    WeightVector,
    gradient,
    kkt_residual,
    objective,
    solve_restricted,
)
from .ranking import rank_sources
from .selectors import (CriticismResult, SelectionConfig, SelectionResult, criticisms, l2c_equal,
                        proto_dash, proto_greedy, random_w, top_m_by_weight)

__version__ = "0.1.0"

__all__ = [
    "CriticismResult",
    "Dataset",
    "DegenerateDataError",
    "GuardError",
    "InputError",
    "KernelMatrix",
    "KernelSpec",
    "MeanMap",
    "NumericError",
    "ProtoSelectError",
    "SelectionConfig",
    "SelectionResult",
    "SolverConfig",
    "SolverError",
    "SupportSet",
    "WeightVector",
    "criticisms",
    "gradient",
    "kernel_eval",
    "kernel_matrix",
    "kkt_residual",
    "l2c_equal",
    "mean_map",
    "median_bandwidth",
    "objective",
    "proto_dash",
    "proto_greedy",
    "random_w",
    "rank_sources",
    "solve_restricted",
    "top_m_by_weight",
    "__version__",
]
