"""Geometry of the d-torus.

A point on T^d is stored as d canonical angles in [-pi, pi), one per circle.
The embedded (cos, sin) pairs are materialized on demand; storing angles
avoids renormalization drift, and the chart/inverse-chart pair reduces to
wrapped angle arithmetic. All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def canonicalize(angle):
    """Wrap an angle (or array of angles) into the canonical interval [-pi, pi).

    The interval is closed at -pi and open at pi, so canonicalize(-pi) == -pi
    and canonicalize(pi) == -pi.
    """
    arr = np.asarray(angle, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angle must be finite")
    out = np.mod(arr + np.pi, TWO_PI) - np.pi
    # np.mod may return the modulus itself for tiny negative inputs.
    out = np.where(out >= np.pi, -np.pi, out)
    if np.isscalar(angle) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point on T^d held as d canonical angles (radians)."""

    angles: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("TorusPoint needs a 1-d vector of at least one angle")
        arr = np.asarray(canonicalize(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "angles", arr)

    @property
    def dim(self) -> int:
        return self.angles.size

    def embed(self) -> np.ndarray:
        """Embedding into R^{2d}: consecutive (cos, sin) pairs, one per circle."""
        out = np.empty(2 * self.dim)
        out[0::2] = np.cos(self.angles)
        out[1::2] = np.sin(self.angles)
        return out


@dataclass(frozen=True, eq=False)
class TangentCoords:
    """Angle offsets relative to a base point, each in [-pi, pi)."""

    theta: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("TangentCoords needs a 1-d vector of at least one angle")
        arr = np.asarray(canonicalize(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)

    @property
    def dim(self) -> int:
        return self.theta.size


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def chart(x: TorusPoint, theta: TangentCoords) -> TorusPoint:
    """Map tangent offsets at x back to the torus.

    Per circle this is x_l*cos(t_l) + (R x_l)*sin(t_l) with R the quarter-turn
    rotation, which in angle form is just x_l + t_l wrapped to [-pi, pi).
    """
    _check_dims(x.dim, theta.dim)
    return TorusPoint(x.angles + theta.theta)


def inverse_chart(x: TorusPoint, z: TorusPoint) -> TangentCoords:
    """Tangent offsets t with chart(x, t) == z.

    Equals atan2((R x_l)' z_l, x_l' z_l) per circle, which reduces to the
    wrapped angle difference of the stored coordinates.
    """
    _check_dims(x.dim, z.dim)
    delta = z.angles - x.angles
    return TangentCoords(np.arctan2(np.sin(delta), np.cos(delta)))


def cos_gaps(x: TorusPoint, z: TorusPoint) -> np.ndarray:
    """Per-circle values 1 - cos(angle gap), each in [0, 2].

    This is 1 - z_l' x_l = 2 sin^2(gap/2), the similarity the toroidal kernel
    is evaluated at.
    """
    _check_dims(x.dim, z.dim)
    return np.clip(1.0 - np.cos(z.angles - x.angles), 0.0, 2.0)


def rotation_frame(x: TorusPoint) -> np.ndarray:
    """The 2d-by-d block-diagonal frame with blocks R x_l (quarter-turned circle vectors).

    Satisfies frame.T @ frame == identity.
    """
    d = x.dim
    frame = np.zeros((2 * d, d))
    cols = np.arange(d)
    frame[2 * cols, cols] = -np.sin(x.angles)
    frame[2 * cols + 1, cols] = np.cos(x.angles)
    return frame

