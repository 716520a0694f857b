"""Kernel profile families and the toroidal product kernel.

The product kernel evaluates a nonincreasing profile L at the per-circle
similarity gaps (1 - cos r)/h^2 and multiplies across circles. Each family
is written once, as its penalty -log L(r): r for von Mises, sqrt(r) for
exponential, and 0 on [0, 1], inf beyond it for uniform; L is exp(-penalty),
and the product kernel is exp of minus the summed per-circle penalties, so
gap_weights on some circles gives per-axis factor rows, whose products are
a grid's kernel values and moment tables (frechet.QueryBatch.factor_rows).
The von Mises profile exp(-r), strictly positive so that no neighborhood is
ever empty, is the default throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


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
