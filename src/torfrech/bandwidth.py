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

A stage is scored fold by fold: the folds run on the thread pool
(TORFRECH_THREADS), and each fold fits all of the stage's candidates through
`frechet.fit_chunks`, one weight pass and one Fréchet-mean solve per chunk.
Each chunk is scored as it is fit, into one running loss and fitted count per
candidate, so memory stays flat in n and in the number of candidates. Per-fold
losses are added in fold order, so scores do not depend on the worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frechet import Dataset, fit_chunks, normalize_estimator
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
    folds[perm] = np.repeat(np.arange(k), base + (np.arange(k) < extra))
    return folds


def _split(data: Dataset, folds: np.ndarray) -> list:
    """(training set, held-out angles, held-out responses) of each fold id."""
    return [(data.subset(folds != f), data.angles[folds == f], data.responses[folds == f])
            for f in sorted(set(folds.tolist()))]


def _fold_losses(fold, space, hs, kernel, estimator, penalty):
    """(loss, fitted rows) arrays over the (C, d) bandwidths hs on one fold, as
    running totals: each fit chunk adds its held-out rows' squared distances,
    the penalty per failed row, and its count of fitted rows."""
    train, angles, held = fold
    loss, fitted = np.zeros(len(hs)), np.zeros(len(hs), dtype=int)
    for cands, rows, fits in fit_chunks(train, angles, hs, kernel, estimator):
        ok = fits.ok.reshape(-1, rows.stop - rows.start)
        d2 = space.pairwise_dist2(held[rows], fits.values.reshape(*ok.shape, *held.shape[1:]))
        loss[cands] += np.where(ok, d2, penalty).sum(axis=1)
        fitted[cands] += ok.sum(axis=1)
    return loss, fitted


def _score_candidate(folds, space, h_tuples, kernel, estimator, threads=None) -> list:
    """Mean held-out loss of each bandwidth; inf where no held-out fit succeeded.

    The folds run on the worker pool, each scoring every bandwidth; the
    per-fold losses are added in fold order, so the scores do not depend on
    the worker count.
    """
    if not h_tuples:
        return []
    hs = np.array([BandwidthVector(np.array(h)).h for h in h_tuples])
    penalty = space.diameter() ** 2
    per_fold = thread_map(lambda fold: _fold_losses(fold, space, hs, kernel, estimator,
                                                    penalty), folds, threads)
    total = np.zeros(len(hs))
    for loss, _ in per_fold:
        total += loss
    fitted = sum(f for _, f in per_fold)
    rows = sum(len(held) for _, _, held in folds)
    return [math.inf if f == 0 else float(t) / rows for t, f in zip(total, fitted)]


def cv_score(data: Dataset, h: BandwidthVector, kernel: KernelFamily, folds,
             estimator: str) -> float:
    """Mean held-out squared distance for one bandwidth under given folds."""
    estimator = normalize_estimator(estimator)
    folds = np.asarray(folds, dtype=int)
    if folds.shape != (data.n,):
        raise ValueError(f"fold assignment must have length {data.n}")
    return _score_candidate(_split(data, folds), data.space, [tuple(float(v) for v in h.h)],
                            kernel, estimator)[0]


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
    splits = _split(data, folds)
    space = data.space

    def score(candidates):
        return list(zip(candidates, _score_candidate(splits, space, candidates, kernel,
                                                     estimator, threads)))

    stage1_scores = score(grid.stage1_candidates())
    winner1 = min(stage1_scores, key=_rank_key)
    if math.isinf(winner1[1]):
        raise ValueError("every stage-one candidate failed on all folds; "
                         "the grid does not cover this dataset")

    seen = {h for h, _ in stage1_scores}
    stage2_scores = score([h for h in grid.stage2_candidates(winner1[0]) if h not in seen])

    best_h, best_score = min(stage1_scores + stage2_scores, key=_rank_key)
    return CVResult(best_h=BandwidthVector(np.array(best_h)), best_score=best_score,
                    stage1_scores=stage1_scores, stage2_scores=stage2_scores,
                    fold_assignment=folds, seed=seed, estimator=estimator,
                    kernel=kernel.value)
