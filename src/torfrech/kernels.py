"""Scalar kernel families and the toroidal product kernel.

The product kernel evaluates a nonincreasing profile L at the per-circle
similarity gaps (1 - cos r)/h^2 and multiplies across circles. Each family
is written once, as its penalty -log L(r): r for von Mises, sqrt(r) for
exponential, and 0 on [0, 1], inf beyond it for uniform; L is exp(-penalty),
and the product kernel is exp of minus the summed per-circle penalties, so
gap_weights on some circles gives per-axis factor rows, whose products are
a grid's kernel values and moment tables (frechet.QueryBatch.factor_rows).
The von Mises profile exp(-r), strictly positive so that no neighborhood is
ever empty, is the default throughout. kernel_moment is quadrature for tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .torus import TorusPoint, cos_gaps


class KernelFamily(enum.Enum):
    VON_MISES = "vonmises"
    EXPONENTIAL = "exponential"
    UNIFORM = "uniform"

    @classmethod
    def from_name(cls, name: str) -> "KernelFamily":
        key = name.strip().lower().replace("_", "").replace("-", "")
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown kernel family {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True, eq=False)
class BandwidthVector:
    """d strictly positive per-circle bandwidths."""

    h: np.ndarray

    def __post_init__(self):
        try:
            arr = np.atleast_1d(np.asarray(self.h, dtype=float))
        except TypeError as exc:
            raise ValueError(f"bandwidths must be numbers ({exc})") from None
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("BandwidthVector needs a 1-d vector of bandwidths")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("all bandwidths must be finite and strictly positive")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "h", arr)

    @property
    def dim(self) -> int:
        return self.h.size


def _penalty(kernel: KernelFamily, r: np.ndarray) -> np.ndarray:
    """-log L(r) for r >= 0; a von Mises penalty is r itself."""
    if kernel is KernelFamily.VON_MISES:
        return r
    if kernel is KernelFamily.EXPONENTIAL:
        return np.sqrt(r)
    if kernel is KernelFamily.UNIFORM:
        return np.where(r <= 1.0, 0.0, np.inf)
    raise ValueError(f"unhandled kernel family {kernel}")  # pragma: no cover


def scalar_kernel(kernel: KernelFamily, r):
    """Evaluate the kernel profile L at r >= 0 (scalar or array)."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kernel argument must be nonnegative")
    out = np.exp(-_penalty(kernel, arr))
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def toroidal_weight(kernel: KernelFamily, x: TorusPoint, z: TorusPoint,
                    h: BandwidthVector) -> float:
    """Product over circles of L((1 - z_l' x_l) / h_l^2)."""
    if x.dim != h.dim:
        raise ValueError(f"dimension mismatch: point dim {x.dim} vs bandwidth dim {h.dim}")
    gaps = cos_gaps(x, z)
    return float(np.prod(scalar_kernel(kernel, gaps / (h.h ** 2))))


def gap_weights(kernel: KernelFamily, gaps: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Vectorized toroidal kernel on precomputed per-circle gaps for a stack
    of bandwidth vectors.

    gaps has shape (..., d) with entries 1 - cos(angle difference) and hs
    shape (C, d); returns the product kernel with shape (C, ...). The d
    per-circle penalties are added in axis order, one array pass per circle.
    """
    hs = np.asarray(hs, dtype=float)
    hsq = (hs ** 2).reshape(hs.shape + (1,) * (gaps.ndim - 1))
    out = None
    for axis in range(hs.shape[1]):
        term = _penalty(kernel, np.divide(gaps[..., axis], hsq[:, axis]))
        out = term if out is None else np.add(out, term, out=out)
    return np.exp(np.negative(out, out=out), out=out)


_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def composite_gauss_nodes(lo: float, hi: float, n_points: int):
    """Composite 64-node Gauss-Legendre rule on [lo, hi] with >= n_points nodes.

    numpy's leggauss loses accuracy for large single rules, so the interval is
    split into equal panels of 64 nodes each.
    """
    panels = max(1, -(-n_points // 64))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    weights = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _axis_moment(kernel: KernelFamily, h: float, j: int, power: int,
                 quad_points: int) -> float:
    """One-dimensional factor: integral of L^power((1-cos u)/h^2) u^j over [-pi, pi).

    For the uniform profile the integrand is an indicator times a polynomial,
    so the quadrature is restricted to the exact support and Gauss-Legendre
    integrates it to machine precision.
    """
    if kernel is KernelFamily.UNIFORM:
        hsq = h * h
        r0 = math.pi if hsq >= 2.0 else math.acos(1.0 - hsq)
        u, w = composite_gauss_nodes(-r0, r0, quad_points)
        return float(np.sum(w * u ** j))
    u, w = composite_gauss_nodes(-math.pi, math.pi, quad_points)
    vals = scalar_kernel(kernel, (1.0 - np.cos(u)) / (h * h)) ** power
    return float(np.sum(w * vals * u ** j))


def kernel_moment(kernel: KernelFamily, h: BandwidthVector, j, power: int = 1,
                  quad_points: int = 1024) -> float:
    """Tensor-product quadrature of the moment integral of the folded kernel.

    Computes the integral over [-pi, pi)^d of the product kernel (raised to
    `power`) times theta^j. The integrand separates across circles, so the
    tensor rule reduces to a product of 1-d Gauss-Legendre quadratures with
    quad_points nodes per axis. By symmetry the value is 0 whenever any j_l
    is odd.
    """
    j_arr = np.atleast_1d(np.asarray(j, dtype=int))
    if j_arr.size != h.dim:
        raise ValueError(f"moment multi-index has length {j_arr.size}, expected {h.dim}")
    if np.any(j_arr < 0):
        raise ValueError("moment multi-index must be nonnegative")
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    if quad_points < 64:
        raise ValueError("quad_points must be at least 64 per axis")
    out = 1.0
    for h_l, j_l in zip(h.h, j_arr):
        out *= _axis_moment(kernel, float(h_l), int(j_l), power, quad_points)
    return out
