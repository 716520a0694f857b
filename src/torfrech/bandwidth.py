"""Bandwidth selection: K-fold cross-validation with a two-stage grid search.

Stage one scores a full tensor grid of candidate bandwidth vectors; stage two
refines around the winner on a (2*halfwidth+1)^d grid whose spacing is a
fraction (default one quarter) of the stage-one spacing, clipped below at
1e-4 and deduplicated against already-scored candidates. The held-out loss
is the squared response-space distance; a held-out point whose fit fails
(singular design, degenerate variance, empty neighborhood, or a solver that
did not converge) contributes the squared space diameter, so degenerate
bandwidths cannot win by attrition. Fold assignment is drawn once per search
and shared across every candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .frechet import Dataset, QueryBatch, normalize_estimator
from .kernels import BandwidthVector, KernelFamily
from .parallel import thread_map

MIN_BANDWIDTH = 1e-4


@dataclass(frozen=True)
class GridSpec:
    """Candidate grids for the two-stage search.

    stage1 holds one ascending candidate list per torus axis; stage two uses
    spacing stage2_fraction times the stage-one spacing and extends
    stage2_halfwidth cells on each side of the stage-one winner.
    """

    stage1: tuple
    stage2_fraction: float = 0.25
    stage2_halfwidth: int = 2

    def __post_init__(self):
        axes = tuple(tuple(float(c) for c in axis) for axis in self.stage1)
        if len(axes) < 1 or any(len(axis) < 1 for axis in axes):
            raise ValueError("stage-one grid needs at least one candidate per axis")
        for axis in axes:
            if any(not math.isfinite(c) or c <= 0.0 for c in axis):
                raise ValueError("all bandwidth candidates must be finite and positive")
            if list(axis) != sorted(axis):
                raise ValueError("per-axis candidates must be ascending")
        if not 0.0 < self.stage2_fraction <= 1.0:
            raise ValueError("stage2_fraction must be in (0, 1]")
        if self.stage2_halfwidth < 0:
            raise ValueError("stage2_halfwidth must be >= 0")
        object.__setattr__(self, "stage1", axes)

    @property
    def dim(self) -> int:
        return len(self.stage1)

    @classmethod
    def uniform(cls, dim: int, start: float = 0.1, stop: float = 1.0, count: int = 10,
                stage2_fraction: float = 0.25, stage2_halfwidth: int = 2) -> "GridSpec":
        axis = tuple(np.linspace(start, stop, count))
        return cls(tuple([axis] * dim), stage2_fraction, stage2_halfwidth)

    def stage1_candidates(self):
        return [tuple(c) for c in itertools.product(*self.stage1)]

    def stage2_candidates(self, winner):
        """Refinement grid around the winner, clipped positive and deduplicated."""
        axes = []
        for axis, w in zip(self.stage1, winner):
            if len(axis) > 1:
                spacing = float(np.mean(np.diff(axis)))
            else:
                spacing = 0.0
            offsets = np.arange(-self.stage2_halfwidth, self.stage2_halfwidth + 1)
            cands = w + offsets * self.stage2_fraction * spacing
            cands = np.maximum(cands, MIN_BANDWIDTH)
            axes.append(sorted(set(float(c) for c in cands)))
        return [tuple(c) for c in itertools.product(*axes)]

    def to_json(self) -> dict:
        return {"stage1": [list(axis) for axis in self.stage1],
                "stage2_fraction": self.stage2_fraction,
                "stage2_halfwidth": self.stage2_halfwidth}

    @classmethod
    def from_json(cls, obj: dict) -> "GridSpec":
        return cls(tuple(tuple(axis) for axis in obj["stage1"]),
                   float(obj.get("stage2_fraction", 0.25)),
                   int(obj.get("stage2_halfwidth", 2)))


@dataclass
class CVResult:
    """Outcome of a bandwidth search: winner plus the full score maps."""

    best_h: BandwidthVector
    best_score: float
    stage1_scores: list
    stage2_scores: list
    fold_assignment: np.ndarray
    seed: int
    estimator: str
    kernel: str

    @property
    def scores(self) -> dict:
        out = dict(self.stage1_scores)
        out.update(dict(self.stage2_scores))
        return out

    def to_json(self) -> dict:
        return {
            "best_h": [float(v) for v in self.best_h.h],
            "best_score": float(self.best_score),
            "stage1": [{"h": list(h), "score": s} for h, s in self.stage1_scores],
            "stage2": [{"h": list(h), "score": s} for h, s in self.stage2_scores],
            "fold_assignment": [int(f) for f in self.fold_assignment],
            "seed": int(self.seed),
            "estimator": self.estimator,
            "kernel": self.kernel,
        }


def kfold_split(n: int, k: int, seed: int) -> np.ndarray:
    """Seeded fold ids in {0..k-1}: a random permutation cut into k blocks
    whose sizes differ by at most one."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot split {n} observations into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.empty(n, dtype=int)
    base, extra = divmod(n, k)
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds[perm[start:start + size]] = f
        start += size
    return folds


class _FoldContext:
    """Training batch and held-out responses for one fold."""

    def __init__(self, data: Dataset, folds: np.ndarray, fold: int):
        held = folds == fold
        self.fold = fold
        self.batch = QueryBatch(data.subset(~held), data.angles[held])
        self.held_responses = data.responses[held]


def _restart_rng(h, fold: int):
    """Deterministic restart generator keyed by (bandwidth bits, fold)."""
    bits = np.asarray(h, dtype=np.float64).view(np.uint64)
    seq = np.random.SeedSequence([int(fold)] + [int(b) for b in bits])
    return np.random.default_rng(seq)


def _score_candidate(contexts, space, h_tuple, kernel, estimator) -> float:
    h = BandwidthVector(np.array(h_tuple))
    penalty = space.diameter() ** 2
    total = 0.0
    count = 0
    successes = 0
    for ctx in contexts:
        fits = ctx.batch.estimates(h, kernel, estimator,
                                   rng=_restart_rng(h_tuple, ctx.fold))
        ok, d2 = fits.ok, space.pairwise_dist2(ctx.held_responses, fits.values)
        total += float(d2[ok].sum()) + penalty * int((~ok).sum())
        successes += int(ok.sum())
        count += ok.size
    if successes == 0:
        return math.inf
    return total / count


def cv_score(data: Dataset, h: BandwidthVector, kernel: KernelFamily, folds,
             estimator: str) -> float:
    """Mean held-out squared distance for one bandwidth under given folds."""
    estimator = normalize_estimator(estimator)
    folds = np.asarray(folds, dtype=int)
    if folds.shape != (data.n,):
        raise ValueError(f"fold assignment must have length {data.n}")
    contexts = [_FoldContext(data, folds, f) for f in sorted(set(folds.tolist()))]
    return _score_candidate(contexts, data.space, tuple(float(v) for v in h.h),
                            kernel, estimator)


def _rank_key(entry):
    h, score = entry
    return (score, float(np.linalg.norm(h)), h)


def two_stage_search(data: Dataset, kernel: KernelFamily, grid: GridSpec, k: int = 5,
                     seed: int = 0, estimator: str = "ll", threads=None) -> CVResult:
    """Coarse tensor-grid search followed by a finer search around the winner.

    Deterministic in (data, kernel, grid, k, seed, estimator); candidate
    scoring is order-preserving so the result is independent of the worker
    count.
    """
    estimator = normalize_estimator(estimator)
    if grid.dim != data.dim:
        raise ValueError(f"grid dimension {grid.dim} != data dimension {data.dim}")
    folds = kfold_split(data.n, k, seed)
    contexts = [_FoldContext(data, folds, f) for f in range(k)]
    space = data.space

    def score(h_tuple):
        return _score_candidate(contexts, space, h_tuple, kernel, estimator)

    stage1 = grid.stage1_candidates()
    stage1_scores = list(zip(stage1, thread_map(score, stage1, threads)))
    winner1 = min(stage1_scores, key=_rank_key)
    if math.isinf(winner1[1]):
        raise ValueError("every stage-one candidate failed on all folds; "
                         "the grid does not cover this dataset")

    seen = set(stage1)
    stage2 = [h for h in grid.stage2_candidates(winner1[0]) if h not in seen]
    stage2_scores = list(zip(stage2, thread_map(score, stage2, threads)))

    best_h, best_score = min(stage1_scores + stage2_scores, key=_rank_key)
    return CVResult(best_h=BandwidthVector(np.array(best_h)), best_score=best_score,
                    stage1_scores=stage1_scores, stage2_scores=stage2_scores,
                    fold_assignment=folds, seed=seed, estimator=estimator,
                    kernel=kernel.value)
