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
batches of one bandwidth and one query. The kernel factors over circles,
so a bandwidth grid gets mu0, mu1, mu2, b and sigma from one table of
per-axis factor products per query slice. Failed rows carry a cause;
`fit_error` types it.
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
from .torus import TWO_PI, TorusPoint, canonicalize

CONDITION_LIMIT = 1e12

# The weight identities mean(W) = 1 and mean(W theta) = 0 carry rounding of
# size eps * (mu0 + |mu1||b|) / sigma, so sigma values below this relative
# floor cannot support them at 1e-10 and are treated as degenerate.
_IDENTITY_TOL = 1e-10
_SIGMA_GUARD = 100.0 * np.finfo(float).eps / _IDENTITY_TOL

# Cap on (bandwidth, query) weight rows x observations per fit call, applied
# by fit_chunks to fit and cross-validation alike, one value for every space.
# Each call of an iterative mean solver pays its own iteration tail, and a loop
# trip costs much the same for a few active rows as for many, so fewer, larger
# calls pay fewer tails. The arrays of one call that scale with the cap: theta
# and gaps (d each, over q x n), the kernel values, the weight rows and the mean
# solver's (rows x n) work arrays (five for the sphere), and each moment table
# and its side rows (QueryBatch.moments).
QUERY_CHUNK_CELLS = 65536

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
_FAILURES = np.array([EMPTY, SINGULAR, SIGMA, WEIGHTS, NONCONVERGED])  # in _causes' order


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
    x, z = data_angles.T[:, None, :], query_angles.T[:, :, None]
    gaps, theta = np.empty((2, x.shape[0], z.shape[1], x.shape[2]))
    # 1 - cos(x - z) = 2 (sin(x/2) cos(z/2) - cos(x/2) sin(z/2))^2 from per-point factors:
    # no libm call a cell, and exact zeros where x == z (theta's buffer holds a product)
    np.multiply(np.sin(x / 2.0), np.cos(z / 2.0), out=gaps)
    np.subtract(gaps, np.multiply(np.cos(x / 2.0), np.sin(z / 2.0), out=theta), out=gaps)
    np.minimum(np.multiply(np.square(gaps, out=gaps), 2.0, out=gaps), 2.0, out=gaps)
    # x - z + pi is in (-pi, 3pi), where these exact shifts give canonicalize's np.mod bits
    theta = np.add(np.subtract(x, z, out=theta), np.pi, out=theta)
    np.subtract(theta, TWO_PI, out=theta, where=theta >= TWO_PI)
    np.add(theta, TWO_PI, out=theta, where=theta < 0.0)
    np.subtract(theta, np.pi, out=theta)
    theta[theta >= np.pi] = -np.pi
    return theta.transpose(1, 2, 0), gaps.transpose(1, 2, 0)


def _sides(hs: np.ndarray):
    """(k, left, right): for axes 0..k-1 and k..d-1 (k = d // 2) of a (C, d) stack,
    np.unique's distinct sub-tuples and indices; None unless fewer than C rows."""
    k = hs.shape[1] // 2
    if k:  # a one-column side takes 1-D np.unique, at a fraction of axis=0's cost
        left, right = ((u.reshape(len(u), -1), i) for u, i in (
            np.unique(s[:, 0] if s.shape[1] == 1 else s, return_inverse=True,
                      axis=None if s.shape[1] == 1 else 0) for s in (hs[:, :k], hs[:, k:])))
        if len(left[0]) + len(right[0]) < len(hs):
            return k, left, right
    return None


def _linear_rule(mu0, mu1, mu2):
    """(beta, ok, cond, sigma) of the local linear rule on rows of moments: ok
    fails where cond > 1e12 or sigma is under its guard, and singular rows get
    sigma NaN. b is one LU solve: refinement in working precision cannot lower
    the normwise residual of that backward-stable solve (Higham 2002, 12.2).
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
    noise = mu0 + np.linalg.norm(mu1, axis=1) * np.linalg.norm(beta, axis=1)
    sigma[ok] = sig[ok]
    ok &= sig > _SIGMA_GUARD * noise
    return beta, ok, cond, sigma


def _linear_weights(kvals, theta, rule):
    """(weights, ok, cond, sigma): W = K (1 - b'theta) / sigma for C * q rows of
    kernel values over the q queries of theta (q, n, d), failed rows zero."""
    beta, ok, cond, sigma = rule
    # b'theta of every row straight into a candidate-major view of the weights,
    # then K (1 - b'theta) / sigma in place: one (rows, n) array in all
    (q, n, d), rows = theta.shape, kvals.shape[0]
    weights = np.empty_like(kvals)
    np.matmul(beta.reshape(rows // q, q, 1, d), theta.transpose(0, 2, 1)[None],
              out=weights.reshape(rows // q, q, 1, n))
    np.multiply(np.subtract(1.0, weights, out=weights), kvals, out=weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights, sigma[:, None], out=weights)
    weights[~ok] = 0.0
    return weights, ok, cond, sigma


def _causes(local_constant: bool, ok, cond, solved=True, converged=True) -> np.ndarray:
    """Outcome of each row from its weight and solver flags; only failed rows
    go through the select."""
    bad = ~(ok & solved & converged)
    cause = np.full(ok.shape, OK, dtype=_FAILURES.dtype)
    if bad.any():
        failed, solved, converged = (np.broadcast_to(x, ok.shape)[bad]
                                     for x in (~ok, solved, converged))
        cause[bad] = np.select([failed & local_constant,
                                failed & ~(cond[bad] <= CONDITION_LIMIT), failed,
                                ~solved, ~converged], _FAILURES, OK)
    return cause


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

    Kernel values depend on the bandwidth only through the cosine gaps, so a
    whole bandwidth stack shares them, and its moments one table. Methods take
    a BandwidthVector or a (C, d) stack of bandwidths and return C * q rows,
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

    def moments(self, h, kernel: KernelFamily, kvals=None, sides=None):
        """(kvals, mu0, mu1, mu2) of every row, as sums of left side rows times
        right side rows, each times 1 or a theta_a. Where _sides (or `sides`)
        splits the axes, the sides are per-axis kernel factor rows of their
        distinct bandwidths, and kvals is None: a stack costs U_L * U_R table
        cells a query, at most prod_a U_a and one a candidate for a tensor grid.
        Else the kernel values (given or computed) are the left rows, ones the right."""
        hs = _bandwidth_stack(h, self.data.dim)
        (q, n, d), c = self.theta.shape, hs.shape[0]
        sides = sides or (None if kvals is not None else _sides(hs))
        if sides is None and kvals is None:
            kvals = gap_weights(kernel, self.gaps, hs).reshape(c * q, n)
        k, (left_rows, iu), (right_rows, iv) = sides or (
            d, (hs, np.arange(c)), (hs[:1, d:], np.zeros(c, dtype=int)))
        (u, v), theta = (len(left_rows), len(right_rows)), self.theta.transpose(2, 0, 1)
        table = np.zeros((c, q, 1 + d, 1 + d))
        # query slices keep left rows, their buffer and right rows times (1, theta) in the cap
        step = max(1, QUERY_CHUNK_CELLS // (n * max(u, (1 + d) * v * (sides is not None))))
        for i in range(0, q, step):
            qs, s = slice(i, i + step), min(step, q - i)
            if sides is None:  # right ones, whose theta products are theta itself
                left, right = kvals.reshape(c, q, n)[:, qs], np.ones((n, 1))
                right_theta = self.theta[qs]
            else:
                left = gap_weights(kernel, self.gaps[qs, :, :k], left_rows)
                right = np.empty((s, 1 + d, v, n))
                right[:, 0] = gap_weights(kernel, self.gaps[qs, :, k:], right_rows).swapaxes(0, 1)
                np.multiply(right[:, :1], theta[:, qs, None].swapaxes(0, 1), out=right[:, 1:])
                right = right.reshape(s, -1, n).transpose(0, 2, 1)
                right, right_theta = right[..., :v], right[..., v:]
            left = left.swapaxes(0, 1)
            table[:, qs, 0, 0] = np.matmul(left, right)[:, iu, iv].T  # mu0; mu1 is row 0's rest
            buf = np.empty(left.shape)
            for j, f in enumerate([None, *theta[:, qs]]):
                rows = left if f is None else np.multiply(left, f[:, None], out=buf)
                table[:, qs, j, 1:] = np.matmul(rows, right_theta).reshape(s, u, d, v)[
                    :, iu, :, iv]
            del left, right, right_theta, buf, rows  # before the next slice allocates its own
        table = table.reshape(c * q, 1 + d, 1 + d) / n
        # kernel mass that underflowed below the smallest normal float has lost
        # the precision the weight identities need; such a row counts as empty
        underflow = table[:, 0, 0] < np.finfo(float).tiny
        table[underflow] = 0.0
        if kvals is not None:
            kvals[underflow] = 0.0
        return kvals, table[:, 0, 0], table[:, 0, 1:], table[:, 1:, 1:]

    def weight_rows(self, h, kernel: KernelFamily, estimator: str, rule=None):
        """(weights, ok, cond, sigma) rows. Local linear rows take b and sigma
        from `rule`, their part of a stack's table, or else from their own
        moments; local constant rows are K_i / mean(K), failed only where that
        mean underflows, with cond and sigma NaN."""
        hs = _bandwidth_stack(h, self.data.dim)
        kvals = gap_weights(kernel, self.gaps, hs).reshape(-1, self.data.n)
        if normalize_estimator(estimator) == LOCAL_LINEAR:
            if rule is None:
                rule = _linear_rule(*self.moments(hs, kernel, kvals)[1:])
            return _linear_weights(kvals, self.theta, rule)
        mu0 = kvals.mean(axis=1)
        ok = mu0 >= np.finfo(float).tiny
        weights = np.zeros_like(kvals)
        weights[ok] = kvals[ok] / mu0[ok, None]
        return weights, ok, np.full(ok.shape, np.nan), np.full(ok.shape, np.nan)

    def estimates(self, h, kernel: KernelFamily, estimator: str, rule=None):
        """Fit every row; failed rows carry their cause rather than raise."""
        weights, ok, cond, sigma = self.weight_rows(h, kernel, estimator, rule)
        # failed weight rows are zero, and the solver skips rows summing to <= 0
        values, solved, iterations, converged = self.data.space.frechet_mean_batch(
            self.data.responses, weights)
        cause = _causes(normalize_estimator(estimator) == LOCAL_CONSTANT, ok, cond,
                        solved, converged)
        return QueryFits(values, cond, sigma, iterations, cause)


def fit_chunks(data: Dataset, query_angles, h, kernel: KernelFamily, estimator: str):
    """Yield (bandwidth slice, query slice, QueryFits) over one BandwidthVector
    or a (C, d) stack: query slices of QUERY_CHUNK_CELLS (65,536) // n, one
    QueryBatch each, fit their bandwidths in stacks of at most QUERY_CHUNK_CELLS
    rows x observations (one row per call when n exceeds it).

    A local linear stack sharing per-axis factors (_sides) gets b and sigma from
    one moment table per query slice, whose (1 + d)^2 cells a row fit the cap.
    """
    queries = np.atleast_2d(np.asarray(query_angles, dtype=float))
    hs, q = _bandwidth_stack(h, data.dim), queries.shape[0]
    sides = _sides(hs) if normalize_estimator(estimator) == LOCAL_LINEAR else None
    step = max(1, QUERY_CHUNK_CELLS // max(data.n, bool(sides) * (1 + data.dim) ** 2 * len(hs)))
    if sides:  # equal slices: a short last one would be fit in many small calls
        step = -(-q // -(-q // step))
    stack = max(1, QUERY_CHUNK_CELLS // (min(step, q) * data.n))
    for i in range(0, q, step):
        rows = slice(i, min(i + step, q))
        batch, size = QueryBatch(data, queries[rows]), rows.stop - rows.start
        rule = _linear_rule(*batch.moments(hs, kernel, sides=sides)[1:]) if sides else None
        for c in range(0, len(hs), stack):
            cands = slice(c, min(c + stack, len(hs)))
            part = None if rule is None else tuple(x[c * size:cands.stop * size] for x in rule)
            yield cands, rows, batch.estimates(hs[cands], kernel, estimator, part)


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
    _, _, cond, sigma = _linear_rule(mu0, mu1, mu2)
    return LocalMoments(mu0=float(mu0[0]), mu1=mu1[0], mu2=mu2[0], sigma=float(sigma[0]),
                        theta=batch.theta[0], kernel_weights=kvals[0],
                        condition_number=float(cond[0]))


def local_linear_weights(moments: LocalMoments) -> np.ndarray:
    """Signed weights W_i = K_i (1 - b'theta_i)/sigma from precomputed moments.

    Raises SingularDesignError when mu2 is (numerically) singular and
    DegenerateVarianceError when sigma <= 0.
    """
    weights, ok, cond, sigma = _linear_weights(
        moments.kernel_weights[None], moments.theta[None], _linear_rule(
            np.array([moments.mu0]), moments.mu1[None], moments.mu2[None]))
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
    """One QueryBatch's fit and weight row; a failed row raises its typed error."""
    batch = QueryBatch(data, x.angles)
    fits = batch.estimates(h, kernel, estimator)
    if not fits.ok[0]:
        raise fits.error(0)
    weights = batch.weight_rows(h, kernel, estimator)[0][0]
    value = fits.values[0] if data.responses.ndim > 1 else float(fits.values[0])
    diag = FitDiagnostics(float(fits.condition_number[0]), float(fits.sigma[0]),
                          int(fits.iterations[0]), converged=True)
    return LocalFit(estimate=value, weights=weights, query=x, estimator=estimator,
                    diagnostics=diag)
