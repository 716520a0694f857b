"""Geometry of the d-torus.

A point on T^d is stored as d canonical angles in [-pi, pi), one per circle.
Storing angles rather than embedded (cos, sin) pairs avoids renormalization
drift, and the chart at a point reduces to wrapped angle arithmetic, which the
fit path does in batch (frechet._theta_gaps). All functions here are pure and
thread-safe.
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
