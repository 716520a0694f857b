"""Response spaces: metric + weighted Fréchet mean for four geometries.

A response space bundles a distance, payload validation, JSON encoding, a
finite diameter bound, and a weighted Fréchet-mean solver. Weights may be
negative (the local linear estimator produces signed weights), so each
solver is written to stay well-defined as long as the weights sum to a
positive value:

* scalars: closed-form weighted average;
* spheres: projected gradient on the sphere with backtracking line search,
  started from the best sample point plus random restarts;
* distributions on an interval (quantile grid): weighted average of the
  quantile vectors followed by projection onto the nondecreasing cone;
* graph Laplacians: box-constrained projected gradient over the
  off-diagonal edge weights.

A brute-force grid oracle is provided for small spaces so the solvers can
be checked against exhaustive minimization.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    PayloadError,
    UnsupportedOracleError,
)

_STEP_CAP = 1e3  # upper bound for line-search step growth
_SPHERE_RESTARTS = 3  # random starts per row, besides the best sample point
_SPHERE_TOL = 1e-10  # stop once an accepted step lowers the objective by less
_SPHERE_MAX_ITER = 500
_LAPLACIAN_TOL = 1e-10
_LAPLACIAN_MAX_ITER = 2000


@dataclass(frozen=True)
class MeanResult:
    """Weighted Fréchet mean with solver diagnostics."""

    value: object
    objective: float
    iterations: int
    converged: bool


class ResponseSpace(abc.ABC):
    """Contract shared by all response geometries."""

    kind: str

    @abc.abstractmethod
    def validate(self, payload):
        """Return the canonical array form of a payload or raise PayloadError."""

    @abc.abstractmethod
    def diameter(self) -> float:
        """A finite upper bound on pairwise distances."""

    @abc.abstractmethod
    def pairwise_dist2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rowwise squared distances between two stacks of payloads (no validation)."""

    @abc.abstractmethod
    def _mean_batch(self, stacked: np.ndarray, weight_rows: np.ndarray, rng):
        """Solve one mean per weight row; returns (values, iterations, converged)."""

    @abc.abstractmethod
    def payload_to_json(self, payload):
        ...

    @abc.abstractmethod
    def payload_from_json(self, obj):
        ...

    @abc.abstractmethod
    def to_json(self) -> dict:
        """Space descriptor as a JSON-compatible dict."""

    def distance(self, y1, y2) -> float:
        a, b = (np.asarray(self.validate(y))[None, ...] for y in (y1, y2))
        return float(np.sqrt(self.pairwise_dist2(a, b)[0]))

    def stack(self, payloads) -> np.ndarray:
        """Validate a sequence of payloads and stack them along axis 0."""
        if len(payloads) == 0:
            raise ValueError("need at least one payload")
        return np.stack([np.asarray(self.validate(p)) for p in payloads])

    def objective(self, stacked: np.ndarray, weights: np.ndarray, y) -> float:
        return float(np.dot(weights, self.pairwise_dist2(stacked,
                                                         np.broadcast_to(y, stacked.shape))))

    def frechet_mean_batch(self, stacked: np.ndarray, weight_rows: np.ndarray, rng=None):
        """Batched means over pre-validated payloads.

        Returns (values, ok, iterations, converged); rows whose weights do
        not sum to a positive value get ok=False and are left untouched by
        the solver.
        """
        weight_rows = np.asarray(weight_rows, dtype=float)
        if rng is None:
            rng = np.random.default_rng(0)
        ok = weight_rows.sum(axis=1) > 0.0
        values = np.zeros((weight_rows.shape[0],) + stacked.shape[1:])
        iterations = np.zeros(weight_rows.shape[0], dtype=int)
        converged = np.zeros(weight_rows.shape[0], dtype=bool)
        if np.any(ok):
            vals, iters, conv = self._mean_batch(stacked, weight_rows[ok], rng)
            values[ok] = vals
            iterations[ok] = iters
            converged[ok] = conv
        return values, ok, iterations, converged


def weighted_frechet_mean(space: ResponseSpace, points, weights, rng=None) -> MeanResult:
    """Minimize the weighted sum of squared distances over the space.

    Raises DegenerateWeightsError when the weights do not sum to a positive
    value and ConvergenceError (carrying the best iterate) when the solver
    exhausts its iteration budget.
    """
    stacked = space.stack(points)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape[0] != stacked.shape[0]:
        raise ValueError(f"{stacked.shape[0]} points but {w.shape[0]} weights")
    vals, ok, iters, conv = space.frechet_mean_batch(stacked, w[None, :], rng=rng)
    if not ok[0]:
        raise DegenerateWeightsError(f"weights sum to {float(w.sum())}; need a positive total")
    value = vals[0] if stacked.ndim > 1 else float(vals[0])
    obj = space.objective(stacked, w, value)
    if not conv[0]:
        raise ConvergenceError(
            f"{space.kind} mean did not converge within the iteration budget",
            best_iterate=value, best_objective=obj)
    return MeanResult(value=value, objective=obj, iterations=int(iters[0]), converged=True)


def distance(space: ResponseSpace, y1, y2) -> float:
    return space.distance(y1, y2)


def isotonic_projection(values) -> np.ndarray:
    """Euclidean projection onto nondecreasing sequences (pool adjacent violators)."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a 1-d sequence of at least one value")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    sums = []
    counts = []
    for x in v:
        cur_sum, cur_cnt = float(x), 1
        while sums and sums[-1] * cur_cnt > cur_sum * counts[-1]:
            cur_sum += sums.pop()
            cur_cnt += counts.pop()
        sums.append(cur_sum)
        counts.append(cur_cnt)
    out = np.empty_like(v)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos:pos + c] = s / c
        pos += c
    return out


class ScalarSpace(ResponseSpace):
    """Real line with caller-declared bounds (used only to report a diameter)."""

    kind = "scalar"

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("scalar bounds must be finite with lo < hi")
        self.lo = lo
        self.hi = hi

    def validate(self, payload):
        arr = np.asarray(payload, dtype=float)
        if arr.shape != ():
            raise PayloadError(f"scalar payload must be a single number, got shape {arr.shape}")
        if not np.isfinite(arr):
            raise PayloadError("scalar payload must be finite")
        return float(arr)

    def diameter(self) -> float:
        return self.hi - self.lo

    def pairwise_dist2(self, a, b):
        return (np.asarray(a) - np.asarray(b)) ** 2

    def _mean_batch(self, stacked, weight_rows, rng):
        # einsum keeps one summation order for numerator and denominator, so
        # constant data is reproduced exactly
        totals = np.einsum("qn->q", weight_rows)
        vals = np.einsum("qn,n->q", weight_rows, stacked) / totals
        q = weight_rows.shape[0]
        return vals, np.zeros(q, dtype=int), np.ones(q, dtype=bool)

    def payload_to_json(self, payload):
        return self.validate(payload)

    def payload_from_json(self, obj):
        return self.validate(obj)

    def to_json(self):
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}


class SphereSpace(ResponseSpace):
    """Unit sphere in R^{p+1} with the geodesic (arc) distance."""

    kind = "sphere"

    def __init__(self, p: int):
        if int(p) < 1:
            raise ValueError("sphere dimension p must be >= 1")
        self.p = int(p)

    def validate(self, payload):
        arr = np.asarray(payload, dtype=float)
        if arr.shape != (self.p + 1,):
            raise PayloadError(f"sphere payload must have {self.p + 1} coordinates, "
                               f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PayloadError("sphere payload must be finite")
        if abs(np.linalg.norm(arr) - 1.0) > 1e-10:
            raise PayloadError("sphere payload must have unit norm (within 1e-10)")
        return arr

    def diameter(self) -> float:
        return math.pi

    def pairwise_dist2(self, a, b):
        dots = np.clip(np.einsum("nm,nm->n", np.asarray(a), np.asarray(b)), -1.0, 1.0)
        return np.arccos(dots) ** 2

    def _mean_batch(self, stacked, weight_rows, rng):
        pts = stacked
        q, n = weight_rows.shape
        m = pts.shape[1]
        gram = np.clip(pts @ pts.T, -1.0, 1.0)
        d2 = np.arccos(gram) ** 2
        best_idx = np.argmin(weight_rows @ d2, axis=1)
        starts = [pts[best_idx]]
        for _ in range(_SPHERE_RESTARTS):
            cand = rng.standard_normal((q, m))
            norms = np.linalg.norm(cand, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            starts.append(cand / norms)
        n_starts = len(starts)
        y = np.concatenate(starts, axis=0)
        w = np.tile(weight_rows, (n_starts, 1))
        rows = y.shape[0]
        # Row x observation work arrays, reused through views of their leading rows:
        # no step allocates anything of size n (no allocator churn, no page faults).
        w_buf, cos_buf, dist_buf, work_buf = (np.empty((rows, n)) for _ in range(4))
        near_one = np.empty((rows, n), dtype=bool)

        def value_and_grad(yc, wc):
            k = yc.shape[0]
            s = np.matmul(yc, pts.T, out=cos_buf[:k])
            np.clip(s, -1.0, 1.0, out=s)
            d = np.arccos(s, out=dist_buf[:k])
            t = np.multiply(d, d, out=work_buf[:k])
            f = np.einsum("rn,rn->r", wc, t)
            # d/ds of arccos(s)^2 is -2*arccos(s)/sqrt(1-s^2); the ratio tends
            # to 1 at s -> 1 and is capped near the antipode.
            np.subtract(1.0, np.multiply(s, s, out=t), out=t)
            np.sqrt(np.maximum(t, 1e-14, out=t), out=t)
            np.divide(d, t, out=t)
            np.copyto(t, 1.0, where=np.greater(s, 1.0 - 1e-12, out=near_one[:k]))
            t *= wc
            grad = -2.0 * (t @ pts)
            grad -= np.einsum("rn,rn->r", grad, yc)[:, None] * yc  # tangent part
            return f, grad

        f, grad = value_and_grad(y, w)
        eta = 0.5 / np.maximum(np.abs(w).sum(axis=1), 1e-12)
        active = np.ones(rows, dtype=bool)
        iters = np.zeros(rows, dtype=int)
        for _ in range(_SPHERE_MAX_ITER):
            if not np.any(active):
                break
            idx = np.nonzero(active)[0]
            fa, ga, ea = f[idx], grad[idx], eta[idx]
            prop = y[idx] - ea[:, None] * ga
            prop /= np.linalg.norm(prop, axis=1, keepdims=True)
            # the gradient at every proposal is kept for the rows that accept it
            f_prop, g_prop = value_and_grad(
                prop, np.take(w, idx, axis=0, out=w_buf[:idx.size], mode="clip"))
            gnorm2 = np.einsum("rn,rn->r", ga, ga)
            accept = f_prop <= fa - 1e-4 * ea * gnorm2
            acc_idx = idx[accept]
            if acc_idx.size:
                y[acc_idx] = prop[accept]
                f[acc_idx] = f_prop[accept]
                grad[acc_idx] = g_prop[accept]
                eta[acc_idx] = np.minimum(eta[acc_idx] * 1.5, _STEP_CAP)
                active[acc_idx[fa[accept] - f_prop[accept] < _SPHERE_TOL]] = False
            rej_idx = idx[~accept]
            if rej_idx.size:
                eta[rej_idx] *= 0.5
                active[rej_idx[eta[rej_idx] < 1e-18]] = False
            iters[idx] += 1
        converged = ~active  # rows that stopped by tolerance (or stalled at a
        # stationary point); rows still active hit the iteration cap
        y_r = y.reshape(n_starts, q, m)
        f_r = f.reshape(n_starts, q)
        it_r = iters.reshape(n_starts, q)
        co_r = converged.reshape(n_starts, q)
        winner = np.argmin(f_r, axis=0)
        cols = np.arange(q)
        return y_r[winner, cols], it_r[winner, cols], co_r[winner, cols]

    def payload_to_json(self, payload):
        return [float(v) for v in self.validate(payload)]

    def payload_from_json(self, obj):
        return self.validate(np.asarray(obj, dtype=float))

    def to_json(self):
        return {"kind": self.kind, "p": self.p}


class WassersteinSpace(ResponseSpace):
    """Distributions on [a, b] as quantile vectors at levels (i - 0.5)/G.

    The 2-Wasserstein distance between quantile functions becomes the root
    mean square difference of the quantile vectors.
    """

    kind = "wasserstein"

    def __init__(self, grid_size: int, a: float, b: float):
        if int(grid_size) < 2:
            raise ValueError("quantile grid needs at least 2 points")
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("interval must be finite with a < b")
        self.grid_size = int(grid_size)
        self.a = a
        self.b = b

    def levels(self) -> np.ndarray:
        return (np.arange(self.grid_size) + 0.5) / self.grid_size

    def validate(self, payload):
        arr = np.asarray(payload, dtype=float)
        if arr.shape != (self.grid_size,):
            raise PayloadError(f"quantile payload must have {self.grid_size} values, "
                               f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PayloadError("quantile payload must be finite")
        if np.any(np.diff(arr) < -1e-12):
            raise PayloadError("quantile payload must be nondecreasing")
        if arr[0] < self.a - 1e-9 or arr[-1] > self.b + 1e-9:
            raise PayloadError(f"quantile payload must lie in [{self.a}, {self.b}]")
        return arr

    def diameter(self) -> float:
        return self.b - self.a

    def pairwise_dist2(self, a, b):
        diff = np.asarray(a) - np.asarray(b)
        return np.mean(diff * diff, axis=1)

    def _mean_batch(self, stacked, weight_rows, rng):
        totals = np.einsum("qn->q", weight_rows)
        avg = np.einsum("qn,ng->qg", weight_rows, stacked) / totals[:, None]
        out = np.empty_like(avg)
        for r in range(avg.shape[0]):
            out[r] = isotonic_projection(avg[r])
        np.clip(out, self.a, self.b, out=out)
        q = weight_rows.shape[0]
        return out, np.zeros(q, dtype=int), np.ones(q, dtype=bool)

    def payload_to_json(self, payload):
        return [float(v) for v in self.validate(payload)]

    def payload_from_json(self, obj):
        return self.validate(np.asarray(obj, dtype=float))

    def to_json(self):
        return {"kind": self.kind, "grid": self.grid_size, "a": self.a, "b": self.b}


class GraphLaplacianSpace(ResponseSpace):
    """Graph Laplacians of undirected graphs on a fixed node set.

    Valid payloads are symmetric with zero row sums and off-diagonal entries
    in [-C_w, 0], metrized by the Frobenius distance. Means are solved over
    the off-diagonal edge weights with a box-constrained projected gradient.
    """

    kind = "graph_laplacian"

    def __init__(self, n_nodes: int, c_w: float):
        if int(n_nodes) < 2:
            raise ValueError("need at least 2 nodes")
        if not (math.isfinite(float(c_w)) and float(c_w) > 0.0):
            raise ValueError("edge-weight cap must be finite and positive")
        self.n_nodes = int(n_nodes)
        self.c_w = float(c_w)
        self._iu = np.triu_indices(self.n_nodes, 1)

    def validate(self, payload):
        arr = np.asarray(payload, dtype=float)
        k = self.n_nodes
        if arr.shape == (k * k,):
            arr = arr.reshape(k, k)
        if arr.shape != (k, k):
            raise PayloadError(f"Laplacian payload must be {k}x{k}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PayloadError("Laplacian payload must be finite")
        if np.max(np.abs(arr - arr.T)) > 1e-9:
            raise PayloadError("Laplacian payload must be symmetric")
        if np.max(np.abs(arr.sum(axis=1))) > 1e-9:
            raise PayloadError("Laplacian payload must have zero row sums (within 1e-9)")
        off = arr[~np.eye(k, dtype=bool)]
        if np.any(off > 1e-9) or np.any(off < -self.c_w - 1e-9):
            raise PayloadError(f"Laplacian off-diagonals must lie in [-{self.c_w}, 0]")
        return arr

    def diameter(self) -> float:
        k = self.n_nodes
        return self.c_w * k * math.sqrt(k - 1.0)

    def pairwise_dist2(self, a, b):
        diff = np.asarray(a) - np.asarray(b)
        return np.einsum("nij,nij->n", diff, diff)

    def edge_weights_to_laplacian(self, w: np.ndarray) -> np.ndarray:
        """Build the Laplacian from upper-triangle edge weights (row-major order)."""
        k = self.n_nodes
        lap = np.zeros((k, k))
        lap[self._iu] = -w
        lap[self._iu[1], self._iu[0]] = -w
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap

    def _mean_one(self, stacked, weights):
        total = weights.sum()
        target = np.tensordot(weights, stacked, axes=1) / total
        iu, ju = self._iu
        w = np.clip(-target[iu, ju], 0.0, self.c_w)
        step = 1.0 / (4.0 * self.n_nodes)
        lap = self.edge_weights_to_laplacian(w)
        f = float(np.sum((lap - target) ** 2))
        it = 0
        converged = False
        for it in range(1, _LAPLACIAN_MAX_ITER + 1):
            resid = lap - target
            grad = 2.0 * (resid[iu, iu] + resid[ju, ju] - 2.0 * resid[iu, ju])
            w_new = np.clip(w - step * grad, 0.0, self.c_w)
            lap_new = self.edge_weights_to_laplacian(w_new)
            f_new = float(np.sum((lap_new - target) ** 2))
            moved = float(np.max(np.abs(w_new - w))) if w.size else 0.0
            w, lap, decrease, f = w_new, lap_new, f - f_new, f_new
            if decrease < _LAPLACIAN_TOL and moved < 1e-12:
                converged = True
                break
        return lap, it, converged

    def _mean_batch(self, stacked, weight_rows, rng):
        q = weight_rows.shape[0]
        values = np.empty((q, self.n_nodes, self.n_nodes))
        iters = np.empty(q, dtype=int)
        conv = np.empty(q, dtype=bool)
        for r in range(q):
            values[r], iters[r], conv[r] = self._mean_one(stacked, weight_rows[r])
        return values, iters, conv

    def payload_to_json(self, payload):
        return [float(v) for v in self.validate(payload).ravel()]

    def payload_from_json(self, obj):
        return self.validate(np.asarray(obj, dtype=float))

    def to_json(self):
        return {"kind": self.kind, "k": self.n_nodes, "c_w": self.c_w}


def space_from_json(obj: dict) -> ResponseSpace:
    """Build a response space from its JSON descriptor."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("space descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "scalar":
            return ScalarSpace(obj["lo"], obj["hi"])
        if kind == "sphere":
            return SphereSpace(obj["p"])
        if kind == "wasserstein":
            return WassersteinSpace(obj["grid"], obj["a"], obj["b"])
        if kind == "graph_laplacian":
            return GraphLaplacianSpace(obj["k"], obj["c_w"])
    except KeyError as exc:
        raise ValueError(f"space descriptor for {kind!r} is missing field {exc}") from exc
    raise ValueError(f"unknown space kind {kind!r}")


def _sphere_grid(resolution: float) -> np.ndarray:
    n_colat = int(round(math.pi / resolution)) + 1
    n_lon = int(round(2.0 * math.pi / resolution))
    colat = np.linspace(0.0, math.pi, n_colat)
    lon = -math.pi + np.arange(n_lon) * (2.0 * math.pi / n_lon)
    ct, ln = np.meshgrid(colat, lon, indexing="ij")
    pts = np.stack([np.sin(ct) * np.cos(ln), np.sin(ct) * np.sin(ln), np.cos(ct)],
                   axis=-1).reshape(-1, 3)
    return pts


def frechet_mean_oracle(space: ResponseSpace, points, weights, grid_resolution: float):
    """Exhaustive grid minimization of the weighted Fréchet objective.

    Supports scalars, the 2-sphere, and graph Laplacians on at most 3 nodes;
    intended as a test oracle, not for production use.
    """
    stacked = space.stack(points)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape[0] != stacked.shape[0]:
        raise ValueError(f"{stacked.shape[0]} points but {w.shape[0]} weights")
    if not w.sum() > 0.0:
        raise DegenerateWeightsError("weights must sum to a positive value")
    if isinstance(space, ScalarSpace):
        grid = np.arange(space.lo, space.hi + grid_resolution * 0.5, grid_resolution)
        obj = ((grid[:, None] - stacked[None, :]) ** 2) @ w
        return float(grid[int(np.argmin(obj))])
    if isinstance(space, SphereSpace) and space.p == 2:
        grid = _sphere_grid(grid_resolution)
        d2 = np.arccos(np.clip(grid @ stacked.T, -1.0, 1.0)) ** 2
        best = grid[int(np.argmin(d2 @ w))]
        return best / np.linalg.norm(best)
    if isinstance(space, GraphLaplacianSpace) and space.n_nodes <= 3:
        axis = np.arange(0.0, space.c_w + grid_resolution * 0.5, grid_resolution)
        n_edges = space.n_nodes * (space.n_nodes - 1) // 2
        mesh = np.meshgrid(*([axis] * n_edges), indexing="ij")
        combos = np.stack([m.ravel() for m in mesh], axis=-1)
        # sum_s w_s ||L - Y_s||^2 = total*||L||^2 - 2<L, sum_s w_s Y_s> + const
        total = float(w.sum())
        weighted_sum = np.tensordot(w, stacked, axes=1)
        best_obj = math.inf
        best_edges = None
        for chunk in np.array_split(combos, max(1, combos.shape[0] // 100_000)):
            laps = np.array([space.edge_weights_to_laplacian(e) for e in chunk])
            objs = total * np.einsum("mij,mij->m", laps, laps)
            objs -= 2.0 * np.einsum("mij,ij->m", laps, weighted_sum)
            pos = int(np.argmin(objs))
            if objs[pos] < best_obj:
                best_obj = float(objs[pos])
                best_edges = chunk[pos]
        return space.edge_weights_to_laplacian(best_edges)
    raise UnsupportedOracleError(
        f"oracle supports scalar, sphere p=2, and graph Laplacians with k<=3; "
        f"got {space.kind}")
