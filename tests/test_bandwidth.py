import math
import tracemalloc

import numpy as np
import pytest

from torfrech import bandwidth, frechet
from torfrech.bandwidth import (
    GridSpec,
    cv_score,
    kfold_split,
    two_stage_search,
)
from torfrech.frechet import Dataset, QueryBatch
from torfrech.kernels import BandwidthVector, KernelFamily
from torfrech.metric import GraphLaplacianSpace, ScalarSpace, SphereSpace, WassersteinSpace

VM = KernelFamily.VON_MISES
SCALAR = ScalarSpace(-50.0, 50.0)


def scalar_data(rng, n, d=1, noise=0.1):
    angles = rng.uniform(-math.pi, math.pi, size=(n, d))
    values = np.sin(angles[:, 0]) + noise * rng.normal(size=n)
    return Dataset(SCALAR, angles, values)


def test_kfold_sizes_and_determinism():
    folds = kfold_split(10, 5, seed=3)
    assert sorted(np.bincount(folds)) == [2, 2, 2, 2, 2]
    folds7 = kfold_split(7, 5, seed=3)
    assert sorted(np.bincount(folds7).tolist()) == [1, 1, 1, 2, 2]
    assert np.array_equal(kfold_split(23, 4, seed=9), kfold_split(23, 4, seed=9))
    assert not np.array_equal(kfold_split(23, 4, seed=9), kfold_split(23, 4, seed=10))


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold_split(3, 5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(5, 1, seed=0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(((0.2, 0.1),))  # not ascending
    with pytest.raises(ValueError):
        GridSpec(((0.0, 0.1),))
    with pytest.raises(ValueError):
        GridSpec(((0.1,),), stage2_fraction=0.0)
    grid = GridSpec.uniform(2, 0.1, 1.0, 10)
    assert grid.dim == 2
    assert len(grid.stage1_candidates()) == 100


def test_cv_score_constant_responses_is_zero():
    rng = np.random.default_rng(40)
    angles = rng.uniform(-math.pi, math.pi, size=(12, 1))
    data = Dataset(SCALAR, angles, np.full(12, 4.0))
    folds = kfold_split(12, 3, seed=1)
    for est in ("lc", "ll"):
        assert cv_score(data, BandwidthVector([0.5]), VM, folds, est) <= 1e-20


def test_cv_score_huge_bandwidth_matches_global_mean():
    rng = np.random.default_rng(41)
    data = scalar_data(rng, 30, noise=0.5)
    folds = kfold_split(30, 5, seed=7)
    score = cv_score(data, BandwidthVector([50.0]), VM, folds, "lc")
    # oracle: leave-fold-out global means
    oracle = 0.0
    for f in range(5):
        held = folds == f
        mean = data.responses[~held].mean()
        oracle += float(((data.responses[held] - mean) ** 2).sum())
    oracle /= 30.0
    assert score == pytest.approx(oracle, rel=1e-2)


def test_cv_score_empty_neighborhoods_give_infinite_sentinel():
    rng = np.random.default_rng(42)
    angles = np.linspace(-3.0, 3.0, 10)[:, None]
    data = Dataset(SCALAR, angles, rng.normal(size=10))
    folds = kfold_split(10, 5, seed=2)
    score = cv_score(data, BandwidthVector([0.01]), KernelFamily.UNIFORM, folds, "lc")
    assert math.isinf(score)


def test_fold_isolation_two_fold_oracle():
    # responses constant per fold: training for fold f is the constant of the
    # other fold, so the score is exactly the squared gap; any leakage of the
    # held-out fold into training would pull the predictions and shrink it
    angles = np.linspace(-3.0, 3.0, 8)[:, None]
    folds = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    a, b = 2.0, -1.0
    values = np.where(folds == 0, a, b)
    data = Dataset(SCALAR, angles, values.astype(float))
    for est in ("lc", "ll"):
        score = cv_score(data, BandwidthVector([1.0]), VM, folds, est)
        assert score == pytest.approx((a - b) ** 2, abs=1e-9)
    # poisoning the held-out responses moves the score only via the targets
    poisoned = values.astype(float)
    poisoned[folds == 0] = 5.0
    data_p = Dataset(SCALAR, angles, poisoned)
    score_p = cv_score(data_p, BandwidthVector([1.0]), VM, folds, "lc")
    assert score_p == pytest.approx(((5.0 - b) ** 2 + (b - 5.0) ** 2) / 2.0, abs=1e-9)


def test_two_stage_singleton_grid():
    rng = np.random.default_rng(43)
    data = scalar_data(rng, 20)
    grid = GridSpec(((0.5,),))
    res = two_stage_search(data, VM, grid, k=4, seed=11, estimator="lc")
    assert np.allclose(res.best_h.h, [0.5])
    assert res.stage2_scores == []  # degenerate cells deduplicate away
    folds = kfold_split(20, 4, seed=11)
    assert res.best_score == pytest.approx(
        cv_score(data, BandwidthVector([0.5]), VM, folds, "lc"), abs=1e-15)


def test_stage2_clipping_no_duplicates():
    grid = GridSpec(((0.05, 0.5),), stage2_fraction=0.25, stage2_halfwidth=2)
    cands = grid.stage2_candidates((0.05,))
    flat = [c[0] for c in cands]
    assert len(flat) == len(set(flat))
    assert min(flat) == pytest.approx(1e-4)
    assert all(c > 0 for c in flat)


def test_two_stage_improves_and_is_reproducible():
    rng = np.random.default_rng(44)
    data = scalar_data(rng, 40, noise=0.3)
    grid = GridSpec(((0.2, 0.5, 0.8),), stage2_fraction=0.25, stage2_halfwidth=2)
    res1 = two_stage_search(data, VM, grid, k=5, seed=5, estimator="ll")
    res2 = two_stage_search(data, VM, grid, k=5, seed=5, estimator="ll")
    assert res1.to_json() == res2.to_json()
    stage1_best = min(s for _, s in res1.stage1_scores)
    assert res1.best_score <= stage1_best
    assert dict(res1.stage1_scores + res1.stage2_scores)[tuple(res1.best_h.h)] == \
        res1.best_score


def test_two_stage_ties_break_toward_smaller_norm():
    # uniform kernel with h^2 >= 2 covers the whole circle, so every such
    # candidate produces bitwise-identical scores and the tie-break picks the
    # smallest norm (stage 2 reaches down to 2.0 around the 3.0 winner)
    rng = np.random.default_rng(46)
    angles = np.linspace(-3.0, 3.0, 10)[:, None]
    data = Dataset(SCALAR, angles, rng.normal(size=10))
    grid = GridSpec(((3.0, 5.0),))
    res = two_stage_search(data, KernelFamily.UNIFORM, grid, k=5, seed=1,
                           estimator="lc")
    scores = dict(res.stage1_scores + res.stage2_scores)
    assert scores[(3.0,)] == scores[(5.0,)] == scores[(2.0,)] == res.best_score
    assert np.allclose(res.best_h.h, [2.0])


def test_cvresult_json_shape():
    rng = np.random.default_rng(45)
    data = scalar_data(rng, 15)
    res = two_stage_search(data, VM, GridSpec(((0.3, 0.6),)), k=3, seed=2,
                           estimator="lc")
    blob = res.to_json()
    assert set(blob) == {"best_h", "best_score", "stage1", "stage2",
                         "fold_assignment", "seed", "estimator", "kernel"}
    assert len(blob["fold_assignment"]) == 15
    assert blob["kernel"] == "vonmises"


@pytest.mark.parametrize("h", [[0.5], [0.5, 0.5, 0.5]])
def test_cv_score_rejects_bandwidth_of_wrong_dimension(h):
    rng = np.random.default_rng(47)
    data = scalar_data(rng, 20, d=2)
    folds = kfold_split(data.n, 4, seed=0)
    with pytest.raises(ValueError,
                       match=f"bandwidth dimension {len(h)} != data dimension 2"):
        cv_score(data, BandwidthVector(h), VM, folds, "ll")


def sphere_data(rng, n):
    """S^2 responses near a smooth surface of two angles."""
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    raw = np.stack([np.cos(angles[:, 0]), np.sin(angles[:, 1]),
                    np.sin(angles[:, 0]) * np.cos(angles[:, 1])], axis=1)
    raw += 0.1 * rng.standard_normal((n, 3))
    return Dataset(SphereSpace(2), angles, raw / np.linalg.norm(raw, axis=1, keepdims=True))


def space_data(kind, rng, n=24):
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    wave = 0.5 + 0.3 * np.sin(angles[:, 0]) * np.cos(angles[:, 1])
    if kind == "scalar":
        return Dataset(SCALAR, angles, wave + 0.1 * rng.normal(size=n))
    if kind == "sphere":
        return sphere_data(rng, n)
    if kind == "wasserstein":
        levels = (np.arange(6) + 0.5) / 6
        rows = np.clip(wave[:, None] + 0.2 * (levels - 0.5)[None, :], 0.0, 1.0)
        return Dataset(WassersteinSpace(6, 0.0, 1.0), angles, rows)
    space = GraphLaplacianSpace(3, 2.0)
    edges = np.clip(np.stack([2 * wave, 2 - 2 * wave, wave], axis=1)
                    + 0.2 * rng.normal(size=(n, 3)), 0.0, 2.0)
    return Dataset(space, angles, space.edge_weights_to_laplacian(edges))


def _same_score(stacked, single):
    if math.isinf(stacked) or math.isinf(single):
        return stacked == single
    return abs(stacked - single) <= 1e-12 * abs(single)


@pytest.mark.parametrize("cap", [frechet.QUERY_CHUNK_CELLS, 40])
@pytest.mark.parametrize("kernel", list(KernelFamily))
@pytest.mark.parametrize("kind", ["scalar", "sphere", "wasserstein", "laplacian"])
def test_stacked_search_matches_single_candidate_scores(kind, kernel, cap, monkeypatch):
    # cap 40 puts a fold of 6 held-out rows x 18 training rows in three query
    # slices of one bandwidth each; the default cap stacks every bandwidth
    monkeypatch.setattr(frechet, "QUERY_CHUNK_CELLS", cap)
    data = space_data(kind, np.random.default_rng(48))
    grid = GridSpec(((0.05, 0.4, 1.2), (0.3, 0.9)), stage2_halfwidth=1)
    for estimator in ("lc", "ll"):
        res = two_stage_search(data, kernel, grid, k=4, seed=3, estimator=estimator)
        folds = kfold_split(data.n, 4, seed=3)
        for h, score in res.stage1_scores + res.stage2_scores:
            single = cv_score(data, BandwidthVector(h), kernel, folds, estimator)
            assert _same_score(score, single), (h, estimator, score, single)
        if kernel is KernelFamily.UNIFORM:
            assert any(math.isinf(s) for _, s in res.stage1_scores)


@pytest.mark.parametrize("kernel", list(KernelFamily))
def test_stacked_weight_rows_match_per_bandwidth_rows(kernel):
    rng = np.random.default_rng(49)
    data = scalar_data(rng, 30, d=2)
    batch = QueryBatch(data, rng.uniform(-math.pi, math.pi, size=(7, 2)))
    hs = rng.uniform(0.1, 1.5, size=(9, 2))
    for estimator in ("lc", "ll"):
        stacked = batch.weight_rows(hs, kernel, estimator)
        for c, h in enumerate(hs):
            single = batch.weight_rows(BandwidthVector(h), kernel, estimator)
            rows = slice(7 * c, 7 * (c + 1))
            assert np.array_equal(stacked[1][rows], single[1])
            if estimator == "lc":
                assert np.array_equal(stacked[0][rows], single[0])
            else:
                scale = max(np.max(np.abs(single[0])), 1.0)
                assert np.max(np.abs(stacked[0][rows] - single[0])) <= 1e-12 * scale


def _stage_peak(splits, space, candidates):
    tracemalloc.start()
    try:
        bandwidth._score_candidate(splits, space, candidates, VM, "lc", threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage_memory_is_flat_in_the_number_of_candidates(monkeypatch):
    """Bandwidths are scored in stacks of at most QUERY_CHUNK_CELLS cells, so
    a stage of 400 candidates peaks no higher than one of 25. Scalar responses
    keep the mean solve cheap; the stacking is the same for every space. The
    cap is pinned so that one stack stays small beside a fold at this n."""
    monkeypatch.setattr(frechet, "QUERY_CHUNK_CELLS", 16384)
    data = scalar_data(np.random.default_rng(50), 200, d=2)
    folds = kfold_split(data.n, 5, seed=0)
    splits = [(data.subset(folds != f), data.angles[folds == f], data.responses[folds == f])
              for f in range(5)]
    axis = np.linspace(0.3, 1.2, 20)
    many = [(a, b) for a in axis for b in axis]
    few = [(a, b) for a in axis[::4] for b in axis[::4]]
    assert _stage_peak(splits, data.space, many) <= \
        1.25 * _stage_peak(splits, data.space, few)


def test_cv_memory_is_flat_in_n(monkeypatch):
    """Folds keep no geometry between fit chunks, so a CV score at n = 1,500
    peaks within 1.5x of one at n = 500, fold set-up included. The cap is
    pinned so that one chunk stays small beside a fold at these n."""
    monkeypatch.setattr(frechet, "QUERY_CHUNK_CELLS", 16384)
    def peak(n):
        data = scalar_data(np.random.default_rng(51), n, d=2)
        folds = kfold_split(n, 5, seed=0)
        tracemalloc.start()
        try:
            score = cv_score(data, BandwidthVector([0.5, 0.5]), VM, folds, "ll")
            return tracemalloc.get_traced_memory()[1], score
        finally:
            tracemalloc.stop()

    (small, small_score), (large, large_score) = peak(500), peak(1500)
    assert math.isfinite(small_score) and math.isfinite(large_score)
    assert large <= 1.5 * small
