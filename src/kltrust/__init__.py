"""KL trust-region stochastic optimization with Kalman-filtered curvature."""

from .baselines import Adam, AdamW, BaselineConfig, SGDMomentum
from .data import (
    Dataset,
    SyntheticQuadraticTask,
    load_cifar_binary,
    load_fashion_mnist,
    load_idx,
    minibatches,
    synthetic_grad,
)
from .harness import RunConfig, run, summarize, verify_hparams
from .models import MLP, Batch, SmallCNN, fd_check
from .optimizer import StepDiagnostics, TrustRegionConfig, TrustRegionOptimizer
from .surrogate import SurrogateState, filter_update, init_state
from .trust_region import (
    DualSolve,
    DualSolverError,
    ParameterDistribution,
    primal_variance,
    solve_eta,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdamW",
    "BaselineConfig",
    "Batch",
    "Dataset",
    "DualSolve",
    "DualSolverError",
    "MLP",
    "ParameterDistribution",
    "RunConfig",
    "SGDMomentum",
    "SmallCNN",
    "StepDiagnostics",
    "SurrogateState",
    "SyntheticQuadraticTask",
    "TrustRegionConfig",
    "TrustRegionOptimizer",
    "fd_check",
    "filter_update",
    "init_state",
    "load_cifar_binary",
    "load_fashion_mnist",
    "load_idx",
    "minibatches",
    "primal_variance",
    "run",
    "solve_eta",
    "summarize",
    "synthetic_grad",
    "verify_hparams",
]
