"""Local constant and local linear Fréchet regression on the torus.

Both estimators minimize a weighted sum of squared response-space distances.
The local constant weights are the toroidal kernel values; the local linear
weights correct them with first-order tangent terms built from the local
moments

    mu0 = mean_i K_i,   mu1 = mean_i K_i theta_i,   mu2 = mean_i K_i theta_i theta_i',

where theta_i are the tangent coordinates of the predictors at the query and
K_i the kernel values. With b solving mu2 b = mu1 and sigma = mu0 - mu1'b,
the signed weights are

    W_i = K_i (1 - b' theta_i) / sigma,

which satisfy mean(W) = 1 and mean(W theta) = 0 identically. Both identities
hold at floating-point accuracy because sigma is computed from the same
solved vector b that enters the weights.

Every fit runs through `QueryBatch`, and `fit_chunks` is the one place that
cuts a fit into memory-bounded calls: `fit_queries` concatenates its chunks
for one bandwidth, cross-validation scores a stack of bandwidths on each
fold's held-out queries from them, and the single-query estimators are
batches of one bandwidth and one query. For each
query, mu1, mu2 and the projections b'theta of a whole bandwidth stack are
matrix products against that query's shared tangent coordinates. Failed rows
carry a cause; `fit_error` types it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateVarianceError,
    DegenerateWeightsError,
    EmptyNeighborhoodError,
    NumericalError,
    SingularDesignError,
)
from .kernels import BandwidthVector, KernelFamily, gap_weights
from .metric import ResponseSpace, weighted_frechet_mean  # noqa: F401  (re-exported)
from .torus import TorusPoint, canonicalize

CONDITION_LIMIT = 1e12

# The weight identities mean(W) = 1 and mean(W theta) = 0 carry rounding of
# size eps * (mu0 + |mu1||b|) / sigma, so sigma values below this relative
# floor cannot support them at 1e-10 and are treated as degenerate.
_IDENTITY_TOL = 1e-10
_SIGMA_GUARD = 100.0 * np.finfo(float).eps / _IDENTITY_TOL

# Cap on (bandwidth, query) weight rows x observations per fit call, applied
# by fit_chunks to fit and cross-validation alike. It bounds the geometry,
# moment and solver arrays of one call.
QUERY_CHUNK_CELLS = 16384

LOCAL_CONSTANT = "lc"
LOCAL_LINEAR = "ll"

_ESTIMATOR_ALIASES = {
    "lc": LOCAL_CONSTANT, "local_constant": LOCAL_CONSTANT, "constant": LOCAL_CONSTANT,
    "ll": LOCAL_LINEAR, "local_linear": LOCAL_LINEAR, "linear": LOCAL_LINEAR,
}

# Per-row fit outcomes.
OK = "ok"
EMPTY = "empty"                # every kernel value is zero (local constant)
SINGULAR = "singular"          # mu2 exceeds CONDITION_LIMIT (local linear)
SIGMA = "sigma"                # sigma fails the guard (local linear)
WEIGHTS = "weights"            # weights do not sum to a positive value
NONCONVERGED = "nonconverged"  # the mean solver stalled or hit its iteration cap


def normalize_estimator(name: str) -> str:
    try:
        return _ESTIMATOR_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown estimator {name!r}; expected 'lc' or 'll'") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sample of torus predictors with metric-space responses."""

    space: ResponseSpace
    angles: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        if ang.ndim != 2 or ang.shape[0] < 1 or ang.shape[1] < 1:
            raise ValueError("predictor angles must form a nonempty (n, d) array")
        ang = np.asarray(canonicalize(ang))
        ang.setflags(write=False)
        object.__setattr__(self, "angles", ang)
        resp = np.asarray(self.responses)
        if resp.shape[0] != ang.shape[0]:
            raise ValueError(f"{ang.shape[0]} predictors but {resp.shape[0]} responses")
        resp = resp.copy()
        resp.setflags(write=False)
        object.__setattr__(self, "responses", resp)

    @property
    def n(self) -> int:
        return self.angles.shape[0]

    @property
    def dim(self) -> int:
        return self.angles.shape[1]

    def subset(self, index) -> "Dataset":
        return Dataset(self.space, self.angles[index], self.responses[index])


@dataclass
class LocalMoments:
    """Per-query kernel moments and tangent coordinates."""

    mu0: float
    mu1: np.ndarray
    mu2: np.ndarray
    sigma: float
    theta: np.ndarray
    kernel_weights: np.ndarray
    condition_number: float


@dataclass
class FitDiagnostics:
    condition_number: float
    sigma: float
    solver_iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class LocalFit:
    """Estimate at one query with the weights that produced it."""

    estimate: object
    weights: np.ndarray
    query: TorusPoint
    estimator: str
    diagnostics: FitDiagnostics


@dataclass
class QueryFits:
    """Per-row results of a batched fit; condition_number and sigma are NaN
    for the local constant estimator, values are zero where no solve ran."""

    values: np.ndarray
    condition_number: np.ndarray
    sigma: np.ndarray
    iterations: np.ndarray
    cause: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.cause == OK

    def error(self, i: int) -> NumericalError:
        """The typed error for failed row i."""
        return fit_error(self.cause[i], float(self.condition_number[i]),
                         float(self.sigma[i]), self.values[i])


def fit_error(cause: str, cond: float = float("nan"), sigma: float = float("nan"),
              best_iterate=None) -> NumericalError:
    """The typed error that a single-query fit raises for a failure cause."""
    if cause == EMPTY:
        return EmptyNeighborhoodError("all kernel weights are zero at the query; enlarge "
                                      "the bandwidth or use a strictly positive kernel")
    if cause == SINGULAR:
        return SingularDesignError(f"second moment matrix is singular (condition number "
                                   f"{cond:.3g} exceeds {CONDITION_LIMIT:.0e})", cond)
    if cause == SIGMA:
        return DegenerateVarianceError(f"local variance term sigma = {sigma:.3g} is not "
                                       f"positive at working precision")
    if cause == WEIGHTS:
        return DegenerateWeightsError("Fréchet-mean weights do not sum to a positive value")
    if cause == NONCONVERGED:
        return ConvergenceError("Fréchet mean did not converge within the iteration budget",
                                best_iterate=best_iterate)
    raise ValueError(f"fit outcome {cause!r} is not a failure")


def _theta_gaps(data_angles: np.ndarray, query_angles: np.ndarray):
    """Tangent coordinates and cosine gaps of every observation at every query.

    Returns (theta, gaps), both of shape (q, n, d), as views of axis-major
    (d, q, n) arrays: each circle's (q, n) slice is contiguous for the
    per-axis kernel and moment passes.
    """
    delta = data_angles.T[:, None, :] - query_angles.T[:, :, None]
    theta = np.asarray(canonicalize(delta))
    gaps = np.clip(1.0 - np.cos(delta), 0.0, 2.0)
    return theta.transpose(1, 2, 0), gaps.transpose(1, 2, 0)


def _linear_weights(kvals, theta, mu0, mu1, mu2):
    """The local linear weight rule for rows of kernel values.

    kvals holds C * q rows, candidate-major, over the q queries of theta
    (q, n, d). Returns (weights, ok, cond, sigma); failed rows (cond > 1e12,
    or sigma under its guard) get zero weights, and singular rows sigma NaN.
    b is one LU solve: refinement in working precision cannot lower the normwise
    residual of that backward-stable solve (Higham 2002, sec. 12.2).
    """
    eigs = np.linalg.eigvalsh(mu2)
    lo, hi = eigs[:, 0], eigs[:, -1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = np.where(lo > 0.0, hi / lo, np.inf)
    ok = cond <= CONDITION_LIMIT
    sigma = np.full(len(mu0), np.nan)
    beta = np.zeros_like(mu1)
    beta[ok] = np.linalg.solve(mu2[ok], mu1[ok][..., None])[..., 0]
    sig = mu0 - np.einsum("rd,rd->r", mu1, beta)
    # b'theta for every row: per query, the (C, d) betas times its (d, n) thetas
    q, d = theta.shape[0], theta.shape[2]
    proj = np.matmul(beta.reshape(-1, q, d).transpose(1, 0, 2), theta.transpose(0, 2, 1))
    proj = proj.transpose(1, 0, 2).reshape(kvals.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = kvals * (1.0 - proj) / sig[:, None]
    noise = mu0 + np.linalg.norm(mu1, axis=1) * np.linalg.norm(beta, axis=1)
    sigma[ok] = sig[ok]
    ok &= sig > _SIGMA_GUARD * noise
    weights[~ok] = 0.0
    return weights, ok, cond, sigma


def _causes(local_constant: bool, ok, cond, solved=True, converged=True) -> np.ndarray:
    """Outcome of each row from its weight and solver flags."""
    failed = ~ok
    return np.select([failed & local_constant, failed & ~(cond <= CONDITION_LIMIT), failed,
                      np.logical_not(solved), np.logical_not(converged)],
                     [EMPTY, SINGULAR, SIGMA, WEIGHTS, NONCONVERGED], OK)


def _bandwidth_stack(h, dim: int) -> np.ndarray:
    """(C, d) bandwidths of a BandwidthVector (a stack of one) or a (C, d) array
    of validated BandwidthVector entries."""
    hs = h.h[None] if isinstance(h, BandwidthVector) else np.asarray(h, dtype=float)
    if hs.ndim != 2 or hs.shape[1] != dim:
        raise ValueError(f"bandwidth dimension {hs.shape[-1]} != data dimension {dim}")
    return hs


@dataclass
class QueryBatch:
    """Precomputed geometry for a fixed (training set, query set) pair.

    Kernel values depend on the bandwidth only through the cosine gaps, so
    bandwidth searches reuse one of these per fold. Every method takes one
    BandwidthVector or a (C, d) stack of bandwidths and returns C * q rows,
    candidate-major: row c * q + i belongs to bandwidth c and query i.
    """

    data: Dataset
    query_angles: np.ndarray
    theta: np.ndarray = field(init=False)
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        q = np.asarray(canonicalize(np.atleast_2d(np.asarray(self.query_angles, float))))
        if q.shape[1] != self.data.dim:
            raise ValueError(f"query dimension {q.shape[1]} != data dimension {self.data.dim}")
        self.query_angles = q
        self.theta, self.gaps = _theta_gaps(self.data.angles, q)

    def moments(self, h, kernel: KernelFamily):
        """Kernel values and the three local moments for every row."""
        hs = _bandwidth_stack(h, self.data.dim)
        (q, n, d), c = self.theta.shape, hs.shape[0]
        kvals = gap_weights(kernel, self.gaps, hs).reshape(c * q, n)
        mu0 = kvals.mean(axis=1)
        # kernel mass that underflowed below the smallest normal float has lost
        # the precision the weight identities need; such a row counts as empty
        underflow = mu0 < np.finfo(float).tiny
        kvals[underflow] = 0.0
        mu0[underflow] = 0.0
        # per query, (C, n) kernel rows times its (n, d) thetas give n mu1, and
        # the (C * d, n) rows K theta_a times the same thetas give n mu2
        by_query = kvals.reshape(c, q, n).transpose(1, 0, 2)
        mu1 = np.matmul(by_query, self.theta).transpose(1, 0, 2).reshape(c * q, d) / n
        k_theta = kvals.reshape(c, 1, q, n) * self.theta.transpose(2, 0, 1)[None]
        mu2 = np.matmul(k_theta.transpose(2, 0, 1, 3).reshape(q, c * d, n), self.theta)
        mu2 = mu2.reshape(q, c, d, d).transpose(1, 0, 2, 3).reshape(c * q, d, d) / n
        return kvals, mu0, mu1, mu2

    def weight_rows(self, h, kernel: KernelFamily, estimator: str):
        """(weights, ok, cond, sigma) rows; local constant rows are K_i / mu0,
        ok unless every kernel value is zero, with cond and sigma NaN."""
        kvals, mu0, mu1, mu2 = self.moments(h, kernel)
        if normalize_estimator(estimator) == LOCAL_LINEAR:
            return _linear_weights(kvals, self.theta, mu0, mu1, mu2)
        ok = mu0 > 0.0
        weights = np.zeros_like(kvals)
        weights[ok] = kvals[ok] / mu0[ok, None]
        return weights, ok, np.full(ok.shape, np.nan), np.full(ok.shape, np.nan)

    def estimates(self, h, kernel: KernelFamily, estimator: str):
        """Fit every row; failed rows carry their cause rather than raise."""
        weights, ok, cond, sigma = self.weight_rows(h, kernel, estimator)
        # failed weight rows are zero, and the solver skips rows summing to <= 0
        values, solved, iterations, converged = self.data.space.frechet_mean_batch(
            self.data.responses, weights)
        cause = _causes(normalize_estimator(estimator) == LOCAL_CONSTANT, ok, cond,
                        solved, converged)
        return QueryFits(values, cond, sigma, iterations, cause)


def fit_chunks(data: Dataset, query_angles, h, kernel: KernelFamily, estimator: str):
    """Yield (bandwidth slice, query slice, QueryFits) over one BandwidthVector
    or a (C, d) stack: query slices of QUERY_CHUNK_CELLS // n, one QueryBatch
    each, fit their bandwidths in stacks of at most QUERY_CHUNK_CELLS rows x
    observations (one row per call when n exceeds it)."""
    queries = np.atleast_2d(np.asarray(query_angles, dtype=float))
    hs, q = _bandwidth_stack(h, data.dim), queries.shape[0]
    step = max(1, QUERY_CHUNK_CELLS // data.n)
    stack = max(1, QUERY_CHUNK_CELLS // (min(step, q) * data.n))
    for i in range(0, q, step):
        rows = slice(i, min(i + step, q))
        batch = QueryBatch(data, queries[rows])
        for c in range(0, len(hs), stack):
            cands = slice(c, min(c + stack, len(hs)))
            yield cands, rows, batch.estimates(hs[cands], kernel, estimator)


def fit_queries(data: Dataset, query_angles, h: BandwidthVector, kernel: KernelFamily,
                estimator: str) -> QueryFits:
    """Fit every query row under one bandwidth, chunk by chunk (fit_chunks)."""
    parts = [fits for _, _, fits in fit_chunks(data, query_angles, h, kernel, estimator)]
    return QueryFits(*(np.concatenate([getattr(p, f.name) for p in parts])
                       for f in fields(QueryFits)))


def local_moments(data: Dataset, x: TorusPoint, h: BandwidthVector,
                  kernel: KernelFamily) -> LocalMoments:
    """Kernel values, tangent coordinates, and moments at a single query."""
    batch = QueryBatch(data, x.angles)
    kvals, mu0, mu1, mu2 = batch.moments(h, kernel)
    _, _, cond, sigma = _linear_weights(kvals, batch.theta, mu0, mu1, mu2)
    return LocalMoments(mu0=float(mu0[0]), mu1=mu1[0], mu2=mu2[0], sigma=float(sigma[0]),
                        theta=batch.theta[0], kernel_weights=kvals[0],
                        condition_number=float(cond[0]))


def local_linear_weights(moments: LocalMoments) -> np.ndarray:
    """Signed weights W_i = K_i (1 - b'theta_i)/sigma from precomputed moments.

    Raises SingularDesignError when mu2 is (numerically) singular and
    DegenerateVarianceError when sigma <= 0.
    """
    weights, ok, cond, sigma = _linear_weights(
        moments.kernel_weights[None], moments.theta[None], np.array([moments.mu0]),
        moments.mu1[None], moments.mu2[None])
    if not ok[0]:
        raise fit_error(_causes(False, ok, cond)[0], float(cond[0]), float(sigma[0]))
    return weights[0]


def local_constant_estimate(data: Dataset, x: TorusPoint, h: BandwidthVector,
                            kernel: KernelFamily) -> LocalFit:
    """Kernel-weighted Fréchet mean at the query (metric Nadaraya-Watson)."""
    return _fit_one(data, x, h, kernel, LOCAL_CONSTANT)


def local_linear_estimate(data: Dataset, x: TorusPoint, h: BandwidthVector,
                          kernel: KernelFamily) -> LocalFit:
    """Fréchet mean under the tangent-corrected signed weights."""
    return _fit_one(data, x, h, kernel, LOCAL_LINEAR)


def _fit_one(data: Dataset, x: TorusPoint, h: BandwidthVector, kernel: KernelFamily,
             estimator: str) -> LocalFit:
    """fit_queries on a batch of one; a failed row raises its typed error."""
    fits = fit_queries(data, x.angles, h, kernel, estimator)
    if not fits.ok[0]:
        raise fits.error(0)
    # fit_queries keeps no weight rows; recomputing gives the bits it used
    weights = QueryBatch(data, x.angles).weight_rows(h, kernel, estimator)[0][0]
    value = fits.values[0] if data.responses.ndim > 1 else float(fits.values[0])
    diag = FitDiagnostics(float(fits.condition_number[0]), float(fits.sigma[0]),
                          int(fits.iterations[0]), converged=True)
    return LocalFit(estimate=value, weights=weights, query=x, estimator=estimator,
                    diagnostics=diag)
