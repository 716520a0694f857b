"""Response spaces: metric + weighted Fréchet mean for four geometries.

A response space bundles a distance, a payload check on stacks of payloads,
a finite diameter bound, and a weighted Fréchet-mean solver. Each space declares
its JSON descriptor once, as (descriptor key, attribute) pairs in constructor order,
which `space_from_json` reads; it inherits `to_json` and `payload_to_json`
(a float for a 0-d payload, else a flat list of floats). Weights may be
negative (the local linear estimator produces signed weights), so each
solver is written to stay well-defined as long as the weights sum to a
positive value:

* scalars: the weighted average (`_weighted_average`, shared by the flat spaces);
* spheres: Riemannian Newton (closed-form Hessian, eigenvalues in absolute
  value) with an Armijo line search along geodesics, from the best of a few
  deterministic start points (the extrinsic mean, the highest-weighted samples
  and the antipodes of the lowest-weighted ones, picked by repeated argmin with
  ties going to the lowest sample index), scored one start at a time in the
  solver's row x observation work arrays; on S^2 the step |H|^-1 g has a closed
  form on the tangent plane (`_s2_abs_newton_step`), and other p use `eigh` of
  the ambient Hessian;
* distributions on an interval (quantile grid): the weighted average of the
  quantile vectors, projected onto the nondecreasing cone;
* graph Laplacians: the weighted average of the edge-weight vectors, projected
  onto the edge-weight box (Frobenius metric), a box-constrained QP solved
  exactly by a safeguarded active-set iteration run on all weight rows of a
  batch at once; the edge index is built on first use, so a descriptor alone
  costs no memory quadratic in the node count.

A brute-force grid oracle is provided for small spaces so the solvers can
be checked against exhaustive minimization.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    PayloadError,
    UnsupportedOracleError,
)

_SPHERE_START_SAMPLES = 3  # top- and bottom-weighted samples tried as starts
_SPHERE_CURVATURE_FLOOR = 1e-3  # least |Hessian eigenvalue|, relative to sum |w|
_SPHERE_TOL = 1e-12  # per unit of sum |w|: Newton steps predicting less skip the line search
_SPHERE_HALVINGS = 30  # line-search halvings before a row counts as stalled
_SPHERE_MAX_ITER = 500
_LAPLACIAN_MAX_ITER = 50
_LAPLACIAN_STEPS = 0.5 ** np.arange(4)  # step lengths tried along the active-set direction


def _float_array(payload) -> np.ndarray:
    """A payload as a new float array; PayloadError when numpy cannot read it as numbers."""
    try:
        return np.array(payload, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PayloadError(f"payload is not numeric ({exc})") from None


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
    descriptor: tuple  # (descriptor key, attribute) pairs, in constructor order

    @abc.abstractmethod
    def _check(self, stacked: np.ndarray) -> np.ndarray:
        """The canonical form of a float stack of payloads, or PayloadError."""

    @abc.abstractmethod
    def diameter(self) -> float:
        """A finite upper bound on pairwise distances."""

    @abc.abstractmethod
    def pairwise_dist2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rowwise squared distances between two stacks of payloads (no validation)."""

    @abc.abstractmethod
    def _mean_batch(self, stacked: np.ndarray, weight_rows: np.ndarray):
        """Solve one mean per weight row; returns (values, iterations, converged)."""

    def payload_to_json(self, payload):
        """A validated payload as JSON: a float if 0-d, else a flat list of floats."""
        arr = np.asarray(self.validate(payload))
        return float(arr) if arr.ndim == 0 else arr.ravel().tolist()

    def to_json(self) -> dict:
        """Space descriptor as a JSON-compatible dict."""
        return {"kind": self.kind,
                **{key: getattr(self, attr) for key, attr in self.descriptor}}

    def distance(self, y1, y2) -> float:
        a, b = (np.asarray(self.validate(y))[None, ...] for y in (y1, y2))
        return float(np.sqrt(self.pairwise_dist2(a, b)[0]))

    def stack(self, payloads) -> np.ndarray:
        """One float conversion and one _check for the whole stack; if that fails, or numpy
        cannot stack the payloads as given, each is validated alone: the first bad one raises."""
        if len(payloads) == 0:
            raise ValueError("need at least one payload")
        try:
            return self._check(_float_array(payloads))
        except PayloadError:
            return np.stack([self.validate(p) for p in payloads])

    def validate(self, payload):
        """The canonical array form of a payload or PayloadError: _check on a stack of one."""
        return self._check(_float_array(payload)[None])[0]

    def objective(self, stacked: np.ndarray, weights: np.ndarray, y) -> float:
        return float(np.dot(weights, self.pairwise_dist2(stacked,
                                                         np.broadcast_to(y, stacked.shape))))

    def frechet_mean_batch(self, stacked: np.ndarray, weight_rows: np.ndarray):
        """Batched means over pre-validated payloads.

        Returns (values, ok, iterations, converged); rows whose weights do
        not sum to a positive value get ok=False and are left untouched by
        the solver.
        """
        weight_rows = np.asarray(weight_rows, dtype=float)
        ok = weight_rows.sum(axis=1) > 0.0
        values = np.zeros((weight_rows.shape[0],) + stacked.shape[1:])
        iterations = np.zeros(weight_rows.shape[0], dtype=int)
        converged = np.zeros(weight_rows.shape[0], dtype=bool)
        if np.any(ok):  # no copy of the weight rows when every row is solvable
            vals, iters, conv = self._mean_batch(
                stacked, weight_rows if ok.all() else weight_rows[ok])
            values[ok] = vals
            iterations[ok] = iters
            converged[ok] = conv
        return values, ok, iterations, converged


def weighted_frechet_mean(space: ResponseSpace, points, weights) -> MeanResult:
    """Minimize the weighted sum of squared distances over the space.

    Raises DegenerateWeightsError when the weights do not sum to a positive
    value and ConvergenceError (carrying the best iterate) when the solver
    stalls or exhausts its iteration budget.
    """
    stacked = space.stack(points)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape[0] != stacked.shape[0]:
        raise ValueError(f"{stacked.shape[0]} points but {w.shape[0]} weights")
    vals, ok, iters, conv = space.frechet_mean_batch(stacked, w[None, :])
    if not ok[0]:
        raise DegenerateWeightsError(f"weights sum to {float(w.sum())}; need a positive total")
    value = vals[0] if stacked.ndim > 1 else float(vals[0])
    obj = space.objective(stacked, w, value)
    if not conv[0]:
        raise ConvergenceError(
            f"{space.kind} mean did not converge within the iteration budget",
            best_iterate=value, best_objective=obj)
    return MeanResult(value=value, objective=obj, iterations=int(iters[0]), converged=True)


def _weighted_average(values: np.ndarray, weight_rows: np.ndarray) -> np.ndarray:
    """(q, m) averages of the rows of values (n, m), one per weight row (q, n): a product
    per row on C-ordered values, so a row's bits depend on its numbers alone."""
    sums = weight_rows[:, None, :] @ np.ascontiguousarray(values)
    return sums[:, 0] / weight_rows.sum(axis=1)[:, None]


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
    descriptor = (("lo", "lo"), ("hi", "hi"))

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("scalar bounds must be finite with lo < hi")
        self.lo = lo
        self.hi = hi

    def _check(self, arr):
        if arr.shape[1:] != ():
            raise PayloadError(f"scalar payload must be a single number, got shape {arr.shape[1:]}")
        if not np.isfinite(arr).all():
            raise PayloadError("scalar payload must be finite")
        return arr

    def diameter(self) -> float:
        return self.hi - self.lo

    def pairwise_dist2(self, a, b):
        return (np.asarray(a) - np.asarray(b)) ** 2

    def _mean_batch(self, stacked, weight_rows):
        vals = _weighted_average(stacked[:, None], weight_rows)[:, 0]
        q = weight_rows.shape[0]
        return vals, np.zeros(q, dtype=int), np.ones(q, dtype=bool)


def _s2_abs_newton_step(y, radial, excess, g, floor):
    """|H|^-1 g on the tangent plane of S^2 at y, where H = 2 (radial P + P M P),
    P = I - y y', M = excess (rows, 3, 3) symmetric, g tangent, and |H| takes H's
    two tangent eigenvalues in absolute value, floored at floor.

    On the plane H = (tau/2) P + D with D = 2 P M P - tr(P M P) P traceless, so D
    has eigenvalues +-r and D^2 = r^2 P, which gives r = |Dg| / |g| for any tangent
    g. Then |H|^-1 g = (f1 + f2)/2 g + (f2 - f1)/2 Dg / r with f1,2 = 1 / max(|tau/2
    -+ r|, floor), Dg / r taken as 0 when r = 0: no basis and no eigensolver.
    """
    g = g - np.einsum("rm,rm->r", y, g)[:, None] * y  # M amplifies any normal part left in g
    mv = excess @ np.stack((y, g), axis=2)  # M y, M g
    t = np.einsum("rii->r", excess) - np.einsum("rm,rm->r", y, mv[:, :, 0])  # tr(P M P)
    dg = 2.0 * mv[:, :, 1] - t[:, None] * g
    dg -= np.einsum("rm,rm->r", y, dg)[:, None] * y  # D g = P (2 M g - t g)
    g_norm, dg_norm = (np.sqrt(np.einsum("rm,rm->r", u, u)) for u in (g, dg))
    r = np.divide(dg_norm, g_norm, out=np.zeros_like(g_norm), where=g_norm > 0.0)
    f = 1.0 / np.maximum(np.abs((2.0 * radial + t)[:, None] + r[:, None] * (-1.0, 1.0)),
                         floor[:, None])
    along = np.divide((f[:, 1] - f[:, 0]) * g_norm, dg_norm, out=np.zeros_like(g_norm),
                      where=dg_norm > 0.0)
    return 0.5 * (f.sum(axis=1)[:, None] * g + along[:, None] * dg)


class SphereSpace(ResponseSpace):
    """Unit sphere in R^{p+1} with the geodesic (arc) distance."""

    kind = "sphere"
    descriptor = (("p", "p"),)

    def __init__(self, p: int):
        if int(p) < 1:
            raise ValueError("sphere dimension p must be >= 1")
        self.p = int(p)

    def _check(self, arr):
        if arr.shape[1:] != (self.p + 1,):
            raise PayloadError(f"sphere payload must have {self.p + 1} coordinates, "
                               f"got shape {arr.shape[1:]}")
        if not np.all(np.isfinite(arr)):
            raise PayloadError("sphere payload must be finite")
        if np.any(np.abs(np.linalg.norm(arr, axis=1) - 1.0) > 1e-10):
            raise PayloadError("sphere payload must have unit norm (within 1e-10)")
        return arr

    def diameter(self) -> float:
        return math.pi

    def pairwise_dist2(self, a, b):
        dots = np.clip(np.einsum("nm,nm->n", np.asarray(a), np.asarray(b)), -1.0, 1.0)
        return np.arccos(dots) ** 2

    def _mean_batch(self, stacked, weight_rows):
        pts, w = stacked, weight_rows
        (q, n), m = w.shape, pts.shape[1]
        scale = np.abs(w).sum(axis=1)
        outer = np.einsum("ni,nj->nij", pts, pts).reshape(n, m * m)
        # Row x observation work arrays, reused through views of their leading rows:
        # no step allocates anything of size n (no allocator churn, no page faults).
        s_buf, d_buf, t_buf, a_buf, w_buf = (np.empty((q, n)) for _ in range(5))
        near_buf, tip_buf = (np.empty((q, n), dtype=bool) for _ in range(2))
        # Start from the best of the normalised extrinsic mean, the highest-weighted
        # samples and the antipodes of the most negatively weighted ones, picked by
        # repeated argmin (ties go to the lowest index).
        top = min(_SPHERE_START_SAMPLES, n)
        picks, all_rows = np.zeros((2, top, q), dtype=int), np.arange(q)
        # without a negative weight every antipode start is dead whatever sample it
        # names, so the lowest-weight picks are skipped (w.min() allocates no q x n array)
        for order, sign in zip(picks[:1 + (w.min() < 0.0)], (-1.0, 1.0)):  # highest, lowest
            key = np.multiply(w, sign, out=s_buf)
            for j in range(top):
                order[j] = np.argmin(key, axis=1)
                key[all_rows, order[j]] = np.inf
        high, low = picks[0].T, picks[1].T
        ext = w @ pts
        ext_norm = np.linalg.norm(ext, axis=1)
        cands = np.concatenate([(ext / np.maximum(ext_norm, 1e-300)[:, None])[:, None],
                                pts[high], -pts[low]], axis=1)
        # antipode starts serve rows with a negative weight there; unused columns go unscored
        dead = np.take_along_axis(w, low, axis=1) >= 0.0
        cand_f = np.full(cands.shape[:2], np.inf)
        live = np.r_[np.ones(1 + top, bool), ~dead.all(axis=0)]
        for j in np.flatnonzero(live):  # one start column at a time, in the work arrays
            d = np.arccos(np.clip(np.matmul(cands[:, j], pts.T, out=s_buf), -1.0, 1.0,
                                  out=s_buf), out=d_buf)
            cand_f[:, j] = np.einsum("qn,qn->q", w, np.multiply(d, d, out=d))
        cand_f[ext_norm < 1e-12, 0] = np.inf
        cand_f[:, 1 + top:][dead] = np.inf
        y = cands[all_rows, np.argmin(cand_f, axis=1)]
        f, slope, t_step, step = np.full(q, np.inf), np.zeros(q), np.ones(q), np.zeros((q, m))
        active, converged, blind = np.ones(q, bool), np.zeros(q, bool), np.zeros(q, bool)
        iters = np.zeros(q, dtype=int)
        for _ in range(_SPHERE_MAX_ITER):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            k = idx.size
            v = t_step[idx, None] * step[idx]  # along the geodesic: exp_y(v)
            theta = np.sqrt(np.einsum("rm,rm->r", v, v))[:, None]
            yc = np.cos(theta) * y[idx] + v * np.divide(
                np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0.0)
            yc /= np.sqrt(np.einsum("rm,rm->r", yc, yc))[:, None]
            wc = w if k == q else np.take(w, idx, axis=0, out=w_buf[:k], mode="clip")
            s = np.clip(np.matmul(yc, pts.T, out=s_buf[:k]), -1.0, 1.0, out=s_buf[:k])
            d = np.arccos(s, out=d_buf[:k])
            fc = np.einsum("rn,rn->r", wc, np.multiply(d, d, out=t_buf[:k]))
            iters[idx] += 1
            t = np.maximum(np.subtract(1.0, np.multiply(s, s, out=t_buf[:k]), out=t_buf[:k]),
                           1e-14, out=t_buf[:k])  # sin^2 d
            a = np.divide(d, np.sqrt(t, out=a_buf[:k]), out=a_buf[:k])
            # c = (1 - d cot d) / sin^2 d, the radial excess of the Hessian of d^2
            c = np.divide(np.subtract(1.0, np.multiply(a, s, out=d), out=d), t, out=d)
            # Within 1e-4 rad of a sample the limits d / sin d -> 1, c -> 1/3 hold.
            # Within 1.4e-7 rad of its antipode d^2 has a cone tip: such samples leave
            # gradient and Hessian, and their weights, summing to -u, add a slope 2 pi u.
            # Both passes run only on trips that have such samples.
            if s.max() > 1.0 - 5e-9:
                near = np.greater(s, 1.0 - 5e-9, out=near_buf[:k])
                np.copyto(a, 1.0, where=near)
                np.copyto(c, 1.0 / 3.0, where=near)
            cone = np.zeros(k)
            if s.min() < -1.0 + 1e-14:
                tip = np.less(s, -1.0 + 1e-14, out=tip_buf[:k])
                np.copyto(a, 0.0, where=tip)
                np.copyto(c, 0.0, where=tip)
                cone = -2.0 * math.pi * np.multiply(wc, tip, out=t).sum(axis=1)
            a *= wc
            c *= wc
            # Armijo: 1e-4 of the linearly predicted decrease; the start (f = inf) passes
            accept = (fc <= f[idx] + 1e-4 * t_step[idx] * slope[idx]) | blind[idx]
            rej = idx[~accept]
            t_step[rej] *= 0.5
            active[rej[t_step[rej] < 0.5 ** _SPHERE_HALVINGS]] = False  # stalled
            rows, yr, cone = idx[accept], yc[accept], cone[accept]
            y[rows], f[rows] = yr, fc[accept]
            g = -2.0 * (a @ pts)[accept]
            g -= np.einsum("rm,rm->r", g, yr)[:, None] * yr
            g_norm = np.sqrt(np.einsum("rm,rm->r", g, g))
            done = rows[(g_norm <= 1e-9 * scale[rows]) | (g_norm < cone)]
            converged[done], active[done] = True, False
            # Hessian 2 [(sum w d cot d) P + P (sum w c x x') P], P = I - y y'. Its
            # eigenvalues in absolute value, floored, keep -|H|^-1 g a descent step for
            # signed weights. S^2 has a closed form; other p pad H with scale on y (its
            # null space, inert as g is in P) and call eigh.
            radial = np.einsum("rn,rn->r", a, s)[accept]
            excess = (c @ outer)[accept].reshape(-1, m, m)
            floor = _SPHERE_CURVATURE_FLOOR * scale[rows]
            if m == 3:
                v = -_s2_abs_newton_step(yr, radial, excess, g, floor)
            else:
                proj = np.eye(m) - yr[:, :, None] * yr[:, None, :]
                hess = 2.0 * (radial[:, None, None] * proj + proj @ excess @ proj)
                lam, vec = np.linalg.eigh(hess + scale[rows, None, None] * (np.eye(m) - proj))
                coef = np.einsum("rmk,rm->rk", vec, g)
                coef /= np.maximum(np.abs(lam), floor[:, None])
                v = -np.einsum("rmk,rk->rm", vec, coef)
                v -= np.einsum("rm,rm->r", v, yr)[:, None] * yr
            # a step predicted to lower f (which grows like sum |w|) by less than the
            # scaled tolerance is taken whole: a line search would only measure rounding
            blind[rows] = -0.5 * np.einsum("rm,rm->r", g, v) < _SPHERE_TOL * scale[rows]
            # Off a cone tip only -g is sure to descend; it gets the Newton length,
            # and no step exceeds a quarter turn.
            v_norm = np.sqrt(np.einsum("rm,rm->r", v, v))
            v[cone > 0.0] = -(g * (v_norm / np.maximum(g_norm, 1e-300))[:, None])[cone > 0.0]
            v *= np.minimum(1.0, (0.5 * math.pi) / np.maximum(v_norm, 1e-300))[:, None]
            step[rows], t_step[rows] = v, 1.0
            slope[rows] = np.einsum("rm,rm->r", g, v) + cone * np.linalg.norm(v, axis=1)
        return y, iters, converged


class WassersteinSpace(ResponseSpace):
    """Distributions on [a, b] as quantile vectors at levels (i - 0.5)/G.

    The 2-Wasserstein distance between quantile functions becomes the root
    mean square difference of the quantile vectors.
    """

    kind = "wasserstein"
    descriptor = (("grid", "grid_size"), ("a", "a"), ("b", "b"))

    def __init__(self, grid_size: int, a: float, b: float):
        if int(grid_size) < 2:
            raise ValueError("quantile grid needs at least 2 points")
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("interval must be finite with a < b")
        self.grid_size = int(grid_size)
        self.a = a
        self.b = b

    def _check(self, arr):
        if arr.shape[1:] != (self.grid_size,):
            raise PayloadError(f"quantile payload must have {self.grid_size} values, "
                               f"got shape {arr.shape[1:]}")
        if not np.all(np.isfinite(arr)):
            raise PayloadError("quantile payload must be finite")
        if np.any(np.diff(arr, axis=1) < -1e-12):
            raise PayloadError("quantile payload must be nondecreasing")
        if np.any(arr[:, 0] < self.a - 1e-9) or np.any(arr[:, -1] > self.b + 1e-9):
            raise PayloadError(f"quantile payload must lie in [{self.a}, {self.b}]")
        return arr

    def diameter(self) -> float:
        return self.b - self.a

    def pairwise_dist2(self, a, b):
        diff = np.asarray(a) - np.asarray(b)
        return np.mean(diff * diff, axis=1)

    def _mean_batch(self, stacked, weight_rows):
        avg = _weighted_average(stacked, weight_rows)
        # pool adjacent violators returns a nondecreasing row bit for bit, so
        # only rows that decrease somewhere (signed weights) need it
        for r in np.nonzero(np.any(np.diff(avg, axis=1) < 0.0, axis=1))[0]:
            avg[r] = isotonic_projection(avg[r])
        np.clip(avg, self.a, self.b, out=avg)
        q = weight_rows.shape[0]
        return avg, np.zeros(q, dtype=int), np.ones(q, dtype=bool)


def _least_objective(cands: np.ndarray, t: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Per row of the (rows, S, E) edge-weight candidates, the one nearest L(t) in
    the Frobenius norm: ||L(x) - L(t)||^2 = 2 |x - t|^2 + |(x - t) @ inc|^2, inc the
    unsigned edge-node incidence. Ties go to the first candidate."""
    diff = cands - t[:, None]
    deg = diff @ inc  # one product per row, so a row's bits do not depend on its batch
    obj = 2.0 * np.einsum("rse,rse->rs", diff, diff) + np.einsum("rsk,rsk->rs", deg, deg)
    return cands[np.arange(len(cands)), np.argmin(obj, axis=1)]


class GraphLaplacianSpace(ResponseSpace):
    """Graph Laplacians of undirected graphs on a fixed node set.

    Valid payloads are symmetric with zero row sums and off-diagonal entries
    in [-C_w, 0], metrized by the Frobenius distance. A mean minimises
    ||L(w) - L(t)||^2 = (w - t)' (2 I + N'N) (w - t) over edge weights w in the
    box [0, C_w], t the weighted average of the edge weights and N the node-edge
    incidence. Each iteration takes the primal-dual active-set step (Hintermueller,
    Ito and Kunisch 2002), searches along its projection arc as Bertsekas's projected
    Newton does, and moves to the arc point or the projected-gradient point of least
    objective, so every step does at least as well as projected gradient and the
    iteration cannot cycle, as the bare active-set iteration can. A row stops
    once the projected-gradient step moves no edge by 1e-12 * C_w, which holds only
    at a feasible KKT point; a row with t in the box returns L(t) exactly, and a
    row still moving after _LAPLACIAN_MAX_ITER iterations is reported unconverged.
    """

    kind = "graph_laplacian"
    descriptor = (("k", "n_nodes"), ("c_w", "c_w"))

    def __init__(self, n_nodes: int, c_w: float):
        if int(n_nodes) < 2:
            raise ValueError("need at least 2 nodes")
        if not (math.isfinite(float(c_w)) and float(c_w) > 0.0):
            raise ValueError("edge-weight cap must be finite and positive")
        self.n_nodes = int(n_nodes)
        self.c_w = float(c_w)

    @functools.cached_property
    def _iu(self):
        """Upper-triangle edge index, built on first use: it holds k(k - 1)
        entries, and a descriptor alone must not cost memory quadratic in k."""
        return np.triu_indices(self.n_nodes, 1)

    def _check(self, arr):
        k = self.n_nodes
        arr = arr.reshape(-1, k, k) if arr.shape[1:] == (k * k,) else arr
        if arr.shape[1:] != (k, k):
            raise PayloadError(f"Laplacian payload must be {k}x{k}, got shape {arr.shape[1:]}")
        if not np.all(np.isfinite(arr)):
            raise PayloadError("Laplacian payload must be finite")
        # entries are sums of up to k edge weights in [0, C_w], so rounding grows with C_w
        tol = 1e-9 * max(1.0, self.c_w)
        if np.max(np.abs(arr - arr.swapaxes(1, 2))) > tol:
            raise PayloadError("Laplacian payload must be symmetric")
        if np.max(np.abs(arr.sum(axis=2))) > tol:
            raise PayloadError("Laplacian payload must have zero row sums "
                               "(within 1e-9 * max(1, c_w))")
        off = arr[:, ~np.eye(k, dtype=bool)]
        if np.any(off > tol) or np.any(off < -self.c_w - tol):
            raise PayloadError(f"Laplacian off-diagonals must lie in [-{self.c_w}, 0]")
        return arr

    def diameter(self) -> float:
        k = self.n_nodes
        return self.c_w * k * math.sqrt(k - 1.0)

    def pairwise_dist2(self, a, b):
        diff = np.asarray(a) - np.asarray(b)
        return np.einsum("nij,nij->n", diff, diff)

    def edge_weights_to_laplacian(self, w: np.ndarray) -> np.ndarray:
        """Laplacians from upper-triangle edge weights (row-major order), shape (..., E)."""
        k, (iu, ju) = self.n_nodes, self._iu
        lap = np.zeros(np.shape(w)[:-1] + (k, k))
        lap[..., iu, ju] = lap[..., ju, iu] = np.negative(w)
        lap[..., np.arange(k), np.arange(k)] = -lap.sum(axis=-1)
        return lap

    def _mean_batch(self, stacked, weight_rows):
        k, (iu, ju), c_w = self.n_nodes, self._iu, self.c_w
        edges = _weighted_average(-stacked[:, iu, ju], weight_rows)  # the targets t
        # a row whose target lies in the box is its own mean: its first stop test holds
        rows = np.nonzero(~np.all((edges >= 0.0) & (edges <= c_w), axis=1))[0]
        iters, converged = np.ones(len(edges), dtype=int), np.ones(len(edges), dtype=bool)
        iters[rows], converged[rows] = _LAPLACIAN_MAX_ITER, False
        t = edges[rows]
        w = np.clip(t, 0.0, c_w)
        nodes = np.arange(k)  # unsigned incidence N: u @ inc holds u's node degrees
        inc = ((iu[:, None] == nodes) | (ju[:, None] == nodes)).astype(float)
        # ||L(w) - L(t)||^2 = 2 |u|^2 + |u @ inc|^2 with u = w - t; degrees, solves and
        # objectives are computed per row, so a row's bits do not depend on its batch
        for it in range(1, _LAPLACIAN_MAX_ITER + 1):
            u = w - t
            deg = (u[:, None, :] @ inc)[:, 0]
            grad = 2.0 * (2.0 * u + deg[:, iu] + deg[:, ju])
            # the projected-gradient point (step 1/L = 1/(4k)) is both the stop test,
            # which holds only at a feasible KKT point, and the fallback step
            pg = np.clip(w - grad / (4.0 * k), 0.0, c_w)
            done = np.max(np.abs(pg - w), axis=1) < 1e-12 * c_w
            if done.any():
                stop = rows[done]
                edges[stop], iters[stop], converged[stop] = pg[done], it, True
                rows, w, t, pg, grad = (a[~done] for a in (rows, w, t, pg, grad))
            if rows.size == 0:
                break
            # active-set point: edges that w - grad / 8 (8, the Hessian's diagonal) puts
            # outside the box are fixed at the bound; the free edges F minimise exactly
            # with the rest held, by Woodbury through the k x k matrix 2 I + N_F N_F'
            trial = w - grad / 8.0
            free = (trial > 0.0) & (trial < c_w)
            fixed = np.where(trial <= 0.0, 0.0, c_w)
            resid = (np.where(free, 0.0, fixed - t)[:, None, :] @ inc)[:, 0]
            gram = np.zeros((rows.size, k, k))
            gram[:, iu, ju] = gram[:, ju, iu] = free
            gram[:, nodes, nodes] = 2.0 + free @ inc
            dual = np.linalg.solve(gram, resid[:, :, None])[:, :, 0]
            step = np.where(free, t - dual[:, iu] - dual[:, ju], fixed) - w
            # candidates: the projection arc clip(w + a step), a = 1, 1/2, 1/4, 1/8, and
            # the projected-gradient point; a row moves to the one of least objective, so
            # no iteration does worse than projected gradient
            w = _least_objective(np.concatenate(
                [w[:, None] + _LAPLACIAN_STEPS[:, None] * step[:, None], pg[:, None]],
                axis=1).clip(0.0, c_w), t, inc)
        edges[rows] = w
        return self.edge_weights_to_laplacian(edges), iters, converged


_SPACES = {cls.kind: cls for cls in (ScalarSpace, SphereSpace, WassersteinSpace,
                                      GraphLaplacianSpace)}


def finite_number(value) -> bool:
    """Whether a JSON value is a number (not a bool) whose float is finite."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# Descriptor fields that count something (sphere dimension, quantile grid
# points, graph nodes); the constructors take them as ints.
_COUNT_FIELDS = frozenset({"p", "grid", "k"})


def space_from_json(obj: dict) -> ResponseSpace:
    """Build a response space from its JSON descriptor; every field is a finite
    number, and a count field a whole one."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("space descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _SPACES:
        raise ValueError(f"unknown space kind {kind!r}")
    cls = _SPACES[kind]
    for name, _ in cls.descriptor:
        if name not in obj:
            raise ValueError(f"space descriptor for {kind!r} is missing field {name!r}")
        if not finite_number(obj[name]):
            raise ValueError(f"space descriptor field {name!r} must be a finite number, "
                             f"got {obj[name]!r}")
        if name in _COUNT_FIELDS and not float(obj[name]).is_integer():
            raise ValueError(f"space descriptor field {name!r} must be a whole number, "
                             f"got {obj[name]!r}")
    return cls(*(obj[name] for name, _ in cls.descriptor))


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
            laps = space.edge_weights_to_laplacian(chunk)
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
