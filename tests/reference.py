"""Scalar references that the tests check the package's batch code against.

Each is written from its definition, on plain angle arrays, with no argument
checks: the torus chart and its inverse, the per-circle similarity gaps, the
kernel profiles and the toroidal product kernel, Gauss-Legendre quadrature of
the kernel moment integrals, a brute-force grid minimiser of the weighted
Fréchet objective, and the distance between two payloads. The profiles do not
go through `torfrech.kernels`, so a comparison with `gap_weights` is an
independent check.
"""

import math

import numpy as np

from torfrech.kernels import KernelFamily
from torfrech.metric import GraphLaplacianSpace, ScalarSpace, SphereSpace
from torfrech.torus import canonicalize

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def chart(x, t):
    """Tangent offsets t at x mapped back to the torus.

    Per circle this is x_l cos(t_l) + (R x_l) sin(t_l) with R the quarter-turn
    rotation, which in angle form is x_l + t_l wrapped to [-pi, pi).
    """
    return canonicalize(np.asarray(x, dtype=float) + t)


def inverse_chart(x, z):
    """Tangent offsets t with chart(x, t) == z: atan2((R x_l)' z_l, x_l' z_l)
    per circle, the wrapped angle difference."""
    delta = np.asarray(z, dtype=float) - x
    return canonicalize(np.arctan2(np.sin(delta), np.cos(delta)))


def cos_gaps(x, z):
    """Per-circle similarity gaps 1 - z_l' x_l = 1 - cos(z_l - x_l), in [0, 2]."""
    return np.clip(1.0 - np.cos(np.asarray(z, dtype=float) - x), 0.0, 2.0)


def scalar_kernel(kernel, r):
    """The kernel profile L(r) for r >= 0: exp(-r) (von Mises), exp(-sqrt(r))
    (exponential), or the indicator of [0, 1] (uniform)."""
    r = np.asarray(r, dtype=float)
    if kernel is KernelFamily.VON_MISES:
        return np.exp(-r)
    if kernel is KernelFamily.EXPONENTIAL:
        return np.exp(-np.sqrt(r))
    return np.where(r <= 1.0, 1.0, 0.0)


def toroidal_weight(kernel, x, z, h):
    """Product over circles of L((1 - z_l' x_l) / h_l^2)."""
    return float(np.prod(scalar_kernel(kernel, cos_gaps(x, z) / np.asarray(h) ** 2)))


def gauss_nodes(lo, hi, panels):
    """Composite 64-node Gauss-Legendre rule on [lo, hi] in equal panels
    (numpy's leggauss loses accuracy for large single rules)."""
    edges = np.linspace(lo, hi, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def kernel_moment(kernel, h, j, power=1, quad_points=1024):
    """Integral over [-pi, pi)^d of the product kernel (raised to `power`) times
    theta^j. The integrand separates across circles, so it is a product of 1-d
    rules with at least quad_points nodes each; for the uniform profile the rule
    covers the exact support, where the integrand is a polynomial."""
    out = 1.0
    for h_l, j_l in zip(h, j):
        r0 = math.pi
        if kernel is KernelFamily.UNIFORM and h_l * h_l < 2.0:
            r0 = math.acos(1.0 - h_l * h_l)
        u, w = gauss_nodes(-r0, r0, -(-quad_points // 64))
        out *= float(np.sum(w * scalar_kernel(kernel, (1.0 - np.cos(u)) / (h_l * h_l))
                            ** power * u ** j_l))
    return out


def frechet_mean_oracle(space, points, weights, grid_resolution):
    """Exhaustive grid minimisation of sum_i w_i d(y, y_i)^2 over a scalar
    interval, the 2-sphere, or the graph Laplacians on at most 3 nodes."""
    stacked, w = space.stack(points), np.asarray(weights, dtype=float)
    if isinstance(space, ScalarSpace):
        grid = np.arange(space.lo, space.hi + grid_resolution * 0.5, grid_resolution)
        return float(grid[int(np.argmin(((grid[:, None] - stacked[None, :]) ** 2) @ w))])
    if isinstance(space, SphereSpace):
        assert space.p == 2
        colat = np.linspace(0.0, math.pi, int(round(math.pi / grid_resolution)) + 1)
        n_lon = int(round(2.0 * math.pi / grid_resolution))
        ct, ln = np.meshgrid(colat, -math.pi + np.arange(n_lon) * (2.0 * math.pi / n_lon),
                             indexing="ij")
        grid = np.stack([np.sin(ct) * np.cos(ln), np.sin(ct) * np.sin(ln), np.cos(ct)],
                        axis=-1).reshape(-1, 3)
        best = grid[int(np.argmin(np.arccos(np.clip(grid @ stacked.T, -1.0, 1.0)) ** 2 @ w))]
        return best / np.linalg.norm(best)
    assert isinstance(space, GraphLaplacianSpace) and space.n_nodes <= 3
    axis = np.arange(0.0, space.c_w + grid_resolution * 0.5, grid_resolution)
    mesh = np.meshgrid(*[axis] * (space.n_nodes * (space.n_nodes - 1) // 2), indexing="ij")
    # sum_s w_s ||L - Y_s||^2 = total ||L||^2 - 2 <L, sum_s w_s Y_s> + const
    total, weighted_sum = w.sum(), np.tensordot(w, stacked, axes=1)
    best, best_obj = None, math.inf
    for chunk in np.array_split(np.stack([m.ravel() for m in mesh], axis=-1),
                                max(1, mesh[0].size // 100_000)):
        laps = space.edge_weights_to_laplacian(chunk)
        objs = total * np.einsum("mij,mij->m", laps, laps) - \
            2.0 * np.einsum("mij,ij->m", laps, weighted_sum)
        if objs.min() < best_obj:
            best, best_obj = chunk[int(np.argmin(objs))], float(objs.min())
    return space.edge_weights_to_laplacian(best)


def distance(space, y1, y2):
    """The response-space distance between two payloads: the root of
    pairwise_dist2 on their stack."""
    pair = space.stack([y1, y2])
    return float(np.sqrt(space.pairwise_dist2(pair[:1], pair[1:])[0]))
