"""Fast randomized interpolative decomposition of matrices and CP tensors.

Sketch-based column selection: CountSketch for sparse matrices,
TensorSketch for CP-format tensors, plus the deterministic, Gaussian,
SRFT and Gram-matrix baselines and a benchmark harness for comparing
them.
"""

from .bench import ExperimentConfig, IdReport, run_experiment, write_csv
from .cp_tensor import (
    CpTensor,
    TensorIdResult,
    cp_diff_norm,
    cp_norm,
    gaussian_tensor_id,
    gram_hadamard,
    gram_tensor_id,
    load_cp_dir,
    save_cp_dir,
    tensor_id_from_sketch,
    tensorsketch_id,
)
from .estimators import NormEstimate, est_spectral_norm, id_residual_operator
from .generators import gen_synthetic_matrix, gen_synthetic_tensor
from .linalg import (
    SingularTriangleError,
    cpqr,
    triangular_solve,
)
from .matrix_id import (
    InterpolativeDecomposition,
    countsketch_id,
    gaussian_id,
    matrix_id,
    matrix_sketch,
    srft_id,
)
from .mmio import read_matrix_market, write_matrix_market
from .sketch import CountSketchOp, GaussianOp, KrGaussianOp, SrftOp, TensorSketchOp

__version__ = "0.1.0"

__all__ = [
    "CountSketchOp",
    "CpTensor",
    "ExperimentConfig",
    "GaussianOp",
    "IdReport",
    "InterpolativeDecomposition",
    "KrGaussianOp",
    "NormEstimate",
    "SingularTriangleError",
    "SrftOp",
    "TensorIdResult",
    "TensorSketchOp",
    "countsketch_id",
    "cp_diff_norm",
    "cp_norm",
    "cpqr",
    "est_spectral_norm",
    "gaussian_id",
    "gaussian_tensor_id",
    "gen_synthetic_matrix",
    "gen_synthetic_tensor",
    "gram_hadamard",
    "gram_tensor_id",
    "id_residual_operator",
    "load_cp_dir",
    "matrix_id",
    "matrix_sketch",
    "read_matrix_market",
    "run_experiment",
    "save_cp_dir",
    "srft_id",
    "tensor_id_from_sketch",
    "tensorsketch_id",
    "triangular_solve",
    "write_csv",
    "write_matrix_market",
]
