"""Local constant and local linear Fréchet regression with toroidal predictors."""

from .bandwidth import CVResult, GridSpec, cv_score, kfold_split, two_stage_search
from .errors import (
    ConvergenceError,
    DatasetFormatError,
    DegenerateVarianceError,
    DegenerateWeightsError,
    EmptyDatasetError,
    EmptyNeighborhoodError,
    NumericalError,
    PayloadError,
    SingularDesignError,
    TorfrechError,
    UnsupportedOracleError,
)
from .frechet import (
    Dataset,
    LocalFit,
    LocalMoments,
    local_constant_estimate,
    local_linear_estimate,
    local_linear_weights,
    local_moments,
)
from .kernels import BandwidthVector, KernelFamily, kernel_moment, scalar_kernel, toroidal_weight
from .metric import (
    GraphLaplacianSpace,
    MeanResult,
    ResponseSpace,
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
    frechet_mean_oracle,
    isotonic_projection,
    space_from_json,
    weighted_frechet_mean,
)
from .simulate import SimConfig, SimReport, mise, regression_fn, run_study, sample_vmf
from .torus import TangentCoords, TorusPoint, canonicalize, chart, cos_gaps, inverse_chart

__version__ = "0.1.0"

__all__ = [
    "BandwidthVector", "CVResult", "ConvergenceError", "Dataset", "DatasetFormatError",
    "DegenerateVarianceError", "DegenerateWeightsError", "EmptyDatasetError",
    "EmptyNeighborhoodError", "GraphLaplacianSpace", "GridSpec", "KernelFamily",
    "LocalFit", "LocalMoments", "MeanResult", "NumericalError", "PayloadError",
    "ResponseSpace", "ScalarSpace", "SimConfig", "SimReport", "SingularDesignError",
    "SphereSpace", "TangentCoords", "TorfrechError", "TorusPoint",
    "UnsupportedOracleError", "WassersteinSpace", "canonicalize", "chart", "cos_gaps",
    "cv_score", "frechet_mean_oracle", "inverse_chart",
    "isotonic_projection", "kernel_moment", "kfold_split", "local_constant_estimate",
    "local_linear_estimate", "local_linear_weights", "local_moments", "mise",
    "regression_fn", "run_study", "sample_vmf", "scalar_kernel", "space_from_json",
    "toroidal_weight", "two_stage_search", "weighted_frechet_mean",
]
