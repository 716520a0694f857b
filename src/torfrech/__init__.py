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
)
from .frechet import (
    Dataset,
    LocalMoments,
    fit_queries,
    local_linear_weights,
    local_moments,
)
from .kernels import BandwidthVector, KernelFamily
from .metric import (
    GraphLaplacianSpace,
    MeanResult,
    ResponseSpace,
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
    isotonic_projection,
    space_from_json,
    weighted_frechet_mean,
)
from .simulate import SimConfig, SimReport, run_study
from .torus import TorusPoint, canonicalize

__version__ = "0.1.0"

__all__ = [
    "BandwidthVector", "CVResult", "ConvergenceError", "Dataset", "DatasetFormatError",
    "DegenerateVarianceError", "DegenerateWeightsError", "EmptyDatasetError",
    "EmptyNeighborhoodError", "GraphLaplacianSpace", "GridSpec", "KernelFamily",
    "LocalMoments", "MeanResult", "NumericalError", "PayloadError",
    "ResponseSpace", "ScalarSpace", "SimConfig", "SimReport", "SingularDesignError",
    "SphereSpace", "TorfrechError", "TorusPoint", "WassersteinSpace", "canonicalize",
    "cv_score", "fit_queries", "isotonic_projection", "kfold_split", "local_linear_weights",
    "local_moments", "run_study", "space_from_json", "two_stage_search",
    "weighted_frechet_mean",
]
