import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torfrech import frechet
from torfrech.errors import (
    ConvergenceError,
    DegenerateVarianceError,
    DegenerateWeightsError,
    EmptyNeighborhoodError,
    SingularDesignError,
)
from torfrech.frechet import (
    Dataset,
    LOCAL_CONSTANT,
    LOCAL_LINEAR,
    QueryBatch,
    fit_chunks,
    fit_queries,
    local_constant_estimate,
    local_linear_estimate,
    local_linear_weights,
    local_moments,
    normalize_estimator,
)
from torfrech.kernels import BandwidthVector, KernelFamily
from torfrech.metric import (
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
    frechet_mean_oracle,
    isotonic_projection,
)
from torfrech.simulate import quadrature_grid
from torfrech.torus import TorusPoint

VM = KernelFamily.VON_MISES
SCALAR = ScalarSpace(-100.0, 100.0)


def fsum_moments(theta, kvals):
    """Independent recomputation of the three moments with compensated sums."""
    n, d = theta.shape
    mu0 = math.fsum(kvals) / n
    mu1 = np.array([math.fsum(kvals[i] * theta[i, a] for i in range(n)) / n
                    for a in range(d)])
    mu2 = np.array([[math.fsum(kvals[i] * theta[i, a] * theta[i, b] for i in range(n)) / n
                     for b in range(d)] for a in range(d)])
    return mu0, mu1, mu2


def wls_hat_row(theta, kvals, n):
    """First row of the weighted-least-squares hat map for regressors (1, theta)."""
    design = np.column_stack([np.ones(theta.shape[0]), theta])
    normal = design.T @ (kvals[:, None] * design)
    return np.linalg.solve(normal, design.T * kvals)[0] * n


def scalar_dataset(rng, n, d, scale=1.0):
    angles = rng.uniform(-math.pi, math.pi, size=(n, d))
    values = rng.normal(scale=scale, size=n)
    return Dataset(SCALAR, angles, values)


def test_normalize_estimator():
    assert normalize_estimator("lc") == LOCAL_CONSTANT
    assert normalize_estimator("Local_Linear") == LOCAL_LINEAR
    with pytest.raises(ValueError):
        normalize_estimator("cubic")


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(SCALAR, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        Dataset(SCALAR, np.zeros((3, 2)), np.zeros(2))
    data = Dataset(SCALAR, np.array([[0.1, 0.2]]), SCALAR.stack([1.0]))
    assert data.n == 1 and data.dim == 2


def test_local_moments_single_centered_point():
    data = Dataset(SCALAR, np.array([[0.3, -0.7]]), np.array([2.0]))
    m = local_moments(data, TorusPoint([0.3, -0.7]), BandwidthVector([0.5, 0.5]), VM)
    assert m.mu0 == pytest.approx(1.0)
    assert np.allclose(m.mu1, 0.0)
    assert np.allclose(m.mu2, 0.0)
    assert math.isinf(m.condition_number)
    assert math.isnan(m.sigma)


def test_local_moments_symmetric_design():
    t = 0.8
    data = Dataset(SCALAR, np.array([[t], [-t]]), np.array([1.0, 2.0]))
    m = local_moments(data, TorusPoint([0.0]), BandwidthVector([0.6]), VM)
    assert np.allclose(m.mu1, 0.0, atol=1e-15)
    assert m.mu0 == pytest.approx(float(np.exp(-(1 - math.cos(t)) / 0.36)))


def test_local_moments_match_compensated_reimplementation():
    angles = np.array([[0.1, -0.4], [1.2, 2.9], [-2.0, 0.3], [2.8, -1.7], [0.6, 0.6]])
    data = Dataset(SCALAR, angles, np.arange(5.0))
    x = TorusPoint([0.4, -0.2])
    h = BandwidthVector([0.3, 0.3])
    m = local_moments(data, x, h, VM)
    mu0, mu1, mu2 = fsum_moments(m.theta, m.kernel_weights)
    assert m.mu0 == pytest.approx(mu0, rel=1e-14)
    assert np.allclose(m.mu1, mu1, rtol=1e-13, atol=1e-17)
    assert np.allclose(m.mu2, mu2, rtol=1e-13, atol=1e-17)
    assert np.allclose(m.mu2, m.mu2.T)
    # sigma consistency with its definition
    expected_sigma = mu0 - mu1 @ np.linalg.solve(mu2, mu1)
    assert m.sigma == pytest.approx(expected_sigma, rel=1e-10)


def test_local_constant_matches_nadaraya_watson():
    rng = np.random.default_rng(20)
    for _ in range(20):
        data = scalar_dataset(rng, 15, 2)
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=2))
        h = BandwidthVector(rng.uniform(0.3, 1.0, size=2))
        fit = local_constant_estimate(data, x, h, VM)
        m = local_moments(data, x, h, VM)
        oracle = np.dot(m.kernel_weights, data.responses) / m.kernel_weights.sum()
        assert fit.estimate == pytest.approx(oracle, abs=1e-12)
        assert np.all(fit.weights >= 0.0)
        assert fit.weights.mean() == pytest.approx(1.0, abs=1e-10)


def test_local_constant_constant_responses():
    data = Dataset(SCALAR, np.array([[0.0], [1.0], [2.0]]), np.full(3, 7.25))
    fit = local_constant_estimate(data, TorusPoint([0.5]), BandwidthVector([0.4]), VM)
    assert fit.estimate == pytest.approx(7.25, abs=1e-12)


def test_local_constant_empty_neighborhood():
    data = Dataset(SCALAR, np.array([[0.0], [0.1]]), np.array([1.0, 2.0]))
    with pytest.raises(EmptyNeighborhoodError):
        local_constant_estimate(data, TorusPoint([math.pi]), BandwidthVector([0.1]),
                                KernelFamily.UNIFORM)


def test_local_constant_sphere_against_oracle():
    rng = np.random.default_rng(21)
    sphere = SphereSpace(2)
    base = rng.standard_normal(3)
    base /= np.linalg.norm(base)
    payloads = []
    for _ in range(20):
        v = base + 0.3 * rng.standard_normal(3)
        payloads.append(v / np.linalg.norm(v))
    angles = rng.uniform(-math.pi, math.pi, size=(20, 2))
    data = Dataset(sphere, angles, sphere.stack(payloads))
    x = TorusPoint(angles[0])
    h = BandwidthVector([0.8, 0.8])
    fit = local_constant_estimate(data, x, h, VM)
    oracle = frechet_mean_oracle(sphere, payloads, fit.weights, math.pi / 180.0)
    obj_fit = sphere.objective(data.responses, fit.weights, fit.estimate)
    obj_oracle = sphere.objective(data.responses, fit.weights, oracle)
    bound = 2.0 * math.pi * np.abs(fit.weights).sum() * 2.0 * (math.pi / 180.0)
    assert obj_oracle - obj_fit >= -1e-6 * max(1.0, obj_oracle)
    assert obj_oracle - obj_fit <= bound


def test_local_linear_weight_identities():
    rng = np.random.default_rng(22)
    for d in (1, 2):
        for _ in range(50):
            n = int(rng.integers(6, 30))
            data = scalar_dataset(rng, n, d)
            x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
            h = BandwidthVector(rng.uniform(0.2, 1.2, size=d))
            m = local_moments(data, x, h, VM)
            try:
                w = local_linear_weights(m)
            except (SingularDesignError, DegenerateVarianceError):
                continue
            assert abs(w.mean() - 1.0) <= 1e-10
            assert np.linalg.norm((w[:, None] * m.theta).mean(axis=0)) <= 1e-10


def test_local_linear_symmetric_design_collapses_to_local_constant():
    t = 1.1
    data = Dataset(SCALAR, np.array([[t], [-t]]), np.array([3.0, 5.0]))
    m = local_moments(data, TorusPoint([0.0]), BandwidthVector([0.7]), VM)
    assert np.allclose(m.mu1, 0.0, atol=1e-16)
    w = local_linear_weights(m)
    assert np.allclose(w, m.kernel_weights / m.mu0, atol=1e-12)
    fit_ll = local_linear_estimate(data, TorusPoint([0.0]), BandwidthVector([0.7]), VM)
    fit_lc = local_constant_estimate(data, TorusPoint([0.0]), BandwidthVector([0.7]), VM)
    assert fit_ll.estimate == pytest.approx(fit_lc.estimate, abs=1e-12)


def test_local_linear_single_point_singular():
    data = Dataset(SCALAR, np.array([[0.2, 0.3]]), np.array([1.0]))
    m = local_moments(data, TorusPoint([0.0, 0.0]), BandwidthVector([0.5, 0.5]), VM)
    with pytest.raises(SingularDesignError):
        local_linear_weights(m)
    with pytest.raises(SingularDesignError):
        local_linear_estimate(data, TorusPoint([0.0, 0.0]), BandwidthVector([0.5, 0.5]), VM)
    # a batch in which every row fails: zero values, NaN sigma, no RuntimeWarning
    fits = fit_queries(data, np.zeros((3, 2)), BandwidthVector([0.5, 0.5]), VM, "ll")
    assert list(fits.cause) == ["singular"] * 3
    assert np.isnan(fits.sigma).all() and not fits.values.any()


def test_local_linear_weights_match_wls_hat_row():
    rng = np.random.default_rng(23)
    angles = np.array([[-2.5], [-1.4], [-0.3], [0.5], [1.6], [2.7]])
    data = Dataset(SCALAR, angles, rng.normal(size=6))
    x = TorusPoint([0.2])
    h = BandwidthVector([0.4])
    m = local_moments(data, x, h, VM)
    w = local_linear_weights(m)
    expected = wls_hat_row(m.theta, m.kernel_weights, data.n)
    assert np.allclose(w, expected, rtol=1e-9, atol=1e-12)


def test_local_linear_reproduces_affine_data():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = 25
        angles = rng.uniform(-1.0, 1.0, size=(n, 2))
        x = TorusPoint([0.0, 0.0])
        coef = rng.normal(size=3)
        values = coef[0] + angles @ coef[1:]
        data = Dataset(SCALAR, angles, values)
        fit = local_linear_estimate(data, x, BandwidthVector([0.5, 0.5]), VM)
        assert fit.estimate == pytest.approx(coef[0], abs=1e-8)


def test_local_linear_constant_responses():
    rng = np.random.default_rng(25)
    angles = rng.uniform(-math.pi, math.pi, size=(12, 2))
    data = Dataset(SCALAR, angles, np.full(12, -3.5))
    fit = local_linear_estimate(data, TorusPoint([0.3, 0.4]),
                                BandwidthVector([0.6, 0.6]), VM)
    assert fit.estimate == pytest.approx(-3.5, abs=1e-10)


def test_local_linear_matches_direct_wls():
    rng = np.random.default_rng(26)
    for _ in range(20):
        data = scalar_dataset(rng, 10, 2)
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=2))
        h = BandwidthVector([0.5, 0.5])
        m = local_moments(data, x, h, VM)
        if m.condition_number > 1e10:
            continue
        fit = local_linear_estimate(data, x, h, VM)
        design = np.column_stack([np.ones(10), m.theta])
        normal = design.T @ (m.kernel_weights[:, None] * design)
        rhs = design.T @ (m.kernel_weights * data.responses)
        alpha = np.linalg.solve(normal, rhs)[0]
        assert fit.estimate == pytest.approx(alpha, abs=1e-8)


def test_degenerate_variance_error():
    m = local_moments(
        Dataset(SCALAR, np.array([[0.4], [-0.4], [0.0]]), np.zeros(3)),
        TorusPoint([0.0]), BandwidthVector([0.5]), VM)
    m.sigma = -1.0
    m.mu0 = float(m.mu1 @ np.linalg.solve(m.mu2, m.mu1)) - 1.0
    with pytest.raises(DegenerateVarianceError):
        local_linear_weights(m)


def test_shift_equivariance_of_estimates():
    rng = np.random.default_rng(27)
    for _ in range(25):
        n = 12
        data = scalar_dataset(rng, n, 2)
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=2))
        h = BandwidthVector(rng.uniform(0.4, 0.9, size=2))
        delta = rng.uniform(-math.pi, math.pi, size=2)
        shifted = Dataset(SCALAR, data.angles + delta, data.responses)
        xs = TorusPoint(x.angles + delta)
        for fitter in (local_constant_estimate, local_linear_estimate):
            try:
                fit0 = fitter(data, x, h, VM)
                fit1 = fitter(shifted, xs, h, VM)
            except SingularDesignError:
                continue
            assert np.allclose(fit0.weights, fit1.weights, atol=1e-10)
            assert fit0.estimate == pytest.approx(fit1.estimate, abs=1e-9)


def _shift_problem(kind):
    rng = np.random.default_rng(30)
    angles = rng.uniform(-math.pi, math.pi, size=(40, 2))
    queries = rng.uniform(-math.pi, math.pi, size=(6, 2))
    if kind == "scalar":
        return Dataset(SCALAR, angles, np.sin(angles[:, 0]) + rng.normal(size=40)), queries
    raw = np.stack([np.cos(angles[:, 0]), np.sin(angles[:, 1]), np.ones(40)], axis=1)
    raw += 0.2 * rng.standard_normal((40, 3))
    return Dataset(SphereSpace(2), angles, raw / np.linalg.norm(raw, axis=1,
                                                                keepdims=True)), queries


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["scalar", "sphere"]), st.sampled_from([LOCAL_CONSTANT, LOCAL_LINEAR]),
       arrays(float, 2, elements=st.floats(-20.0, 20.0)))
def test_fits_are_shift_equivariant(kind, estimator, shift):
    """Shifting predictors and queries by the same angles leaves every fit unchanged."""
    data, queries = _shift_problem(kind)
    h = BandwidthVector([0.6, 0.8])
    base = fit_queries(data, queries, h, VM, estimator)
    moved = fit_queries(Dataset(data.space, data.angles + shift, data.responses),
                        queries + shift, h, VM, estimator)
    assert base.ok.all() and moved.ok.all()
    assert np.max(np.abs(moved.values - base.values)) <= 1e-9


def test_determinism_bitwise_weights():
    rng = np.random.default_rng(28)
    data = scalar_dataset(rng, 20, 2)
    x = TorusPoint([0.1, -0.2])
    h = BandwidthVector([0.5, 0.7])
    a = local_linear_estimate(data, x, h, VM)
    b = local_linear_estimate(data, x, h, VM)
    assert np.array_equal(a.weights, b.weights)
    assert a.estimate == b.estimate


def test_batch_matches_single_query_path():
    rng = np.random.default_rng(29)
    data = scalar_dataset(rng, 18, 2)
    queries = rng.uniform(-math.pi, math.pi, size=(7, 2))
    h = BandwidthVector([0.6, 0.8])
    batch = QueryBatch(data, queries)
    for estimator in (LOCAL_CONSTANT, LOCAL_LINEAR):
        fits = batch.estimates(h, VM, estimator)
        weights = batch.weight_rows(h, VM, estimator)[0]
        for i, q in enumerate(queries):
            fitter = local_constant_estimate if estimator == LOCAL_CONSTANT \
                else local_linear_estimate
            fit = fitter(data, TorusPoint(q), h, VM)
            assert fits.ok[i]
            assert np.allclose(weights[i], fit.weights, atol=1e-12)
            assert fits.values[i] == pytest.approx(fit.estimate, abs=1e-12)


def test_wasserstein_means_equal_always_projected_means():
    """Projection is skipped for nondecreasing rows; the means stay bit for bit."""
    space = WassersteinSpace(10, 0.0, 1.0)
    rng = np.random.default_rng(31)
    angles = rng.uniform(-math.pi, math.pi, size=(40, 2))
    data = Dataset(space, angles, np.sort(rng.uniform(0.0, 1.0, size=(40, 10)), axis=1))
    batch = QueryBatch(data, rng.uniform(-math.pi, math.pi, size=(30, 2)))
    decreasing = 0
    for estimator in (LOCAL_CONSTANT, LOCAL_LINEAR):
        weights, ok = batch.weight_rows(BandwidthVector([0.3, 0.3]), VM, estimator)[:2]
        weights = weights[ok]
        avg = (weights[:, None, :] @ data.responses)[:, 0] / weights.sum(axis=1)[:, None]
        decreasing += int(np.any(np.diff(avg, axis=1) < 0.0, axis=1).sum())
        expected = np.clip([isotonic_projection(row) for row in avg], 0.0, 1.0)
        assert np.array_equal(space.frechet_mean_batch(data.responses, weights)[0], expected)
    assert decreasing > 0


def test_fit_memory_is_flat_in_the_number_of_queries():
    """fit_queries works in QueryBatch chunks of at most QUERY_CHUNK_CELLS
    cells, so 300 queries over 20,000 samples peak within 1.5x of 30 queries."""
    rng = np.random.default_rng(61)
    data = scalar_dataset(rng, 20_000, 2)
    queries = rng.uniform(-math.pi, math.pi, size=(300, 2))

    def peak(q):
        tracemalloc.start()
        try:
            fits = fit_queries(data, queries[:q], BandwidthVector([0.5, 0.5]), VM, LOCAL_LINEAR)
            return tracemalloc.get_traced_memory()[1], fits
        finally:
            tracemalloc.stop()

    (few, fits_few), (many, fits_many) = peak(30), peak(300)
    assert fits_few.ok.all() and fits_many.ok.all()
    assert many <= 1.5 * few


@pytest.mark.parametrize("q, n, c, cap", [(7, 5, 3, 40), (10, 6, 4, 64), (3, 9, 5, 1000),
                                          (1, 20, 6, 50), (4, 50, 2, 30)])
def test_fit_chunks_cover_the_grid_once_in_order_within_the_cap(q, n, c, cap, monkeypatch):
    """Chunks tile the (bandwidth, query) grid query slice by query slice, each
    call within the cap (one row per call when n exceeds it), and each chunk
    holds the fits of its own rows."""
    monkeypatch.setattr(frechet, "QUERY_CHUNK_CELLS", cap)
    rng = np.random.default_rng(62)
    data = scalar_dataset(rng, n, 2)
    queries = rng.uniform(-math.pi, math.pi, size=(q, 2))
    hs = rng.uniform(0.5, 2.0, size=(c, 2))
    whole = QueryBatch(data, queries).estimates(hs, VM, LOCAL_LINEAR).values.reshape(c, q)
    covered, order = np.zeros((c, q), dtype=int), []
    for cands, rows, fits in fit_chunks(data, queries, hs, VM, LOCAL_LINEAR):
        size = (cands.stop - cands.start) * (rows.stop - rows.start)
        assert size * n <= cap if n <= cap else size == 1
        covered[cands, rows] += 1
        order.append((rows.start, cands.start))
        assert np.allclose(fits.values.reshape(-1, rows.stop - rows.start),
                           whole[cands, rows], rtol=1e-12, atol=1e-12)
    assert (covered == 1).all() and order == sorted(order)


def test_sphere_rows_converge_at_large_n():
    """Objectives grow like n, so a Newton step skips the line search below a
    predicted decrease relative to sum |w|: with an absolute threshold these
    rows of an n = 10^5 noise fit stalled and came back nonconverged."""
    rng = np.random.default_rng(0)
    n = 100_000
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    responses = rng.standard_normal((n, 3))
    data = Dataset(SphereSpace(2), angles, responses / np.linalg.norm(responses, axis=1,
                                                                       keepdims=True))
    queries = quadrature_grid(30)[0][[513, 568, 766]]
    fits = fit_queries(data, queries, BandwidthVector([0.5, 0.5]), VM, LOCAL_LINEAR)
    assert fits.ok.all() and fits.iterations.max() <= 30


CAUSE_ERRORS = {
    frechet.EMPTY: EmptyNeighborhoodError,
    frechet.SINGULAR: SingularDesignError,
    frechet.SIGMA: DegenerateVarianceError,
    frechet.WEIGHTS: DegenerateWeightsError,
    frechet.NONCONVERGED: ConvergenceError,
}


@st.composite
def batch_problems(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    q = draw(st.integers(1, 5))
    angle = st.floats(-math.pi, math.pi, allow_nan=False)
    angles = draw(arrays(float, (n, d), elements=angle))
    values = draw(arrays(float, n, elements=st.floats(-10.0, 10.0, allow_nan=False)))
    queries = draw(arrays(float, (q, d), elements=angle))
    h = draw(arrays(float, d, elements=st.floats(0.05, 2.0)))
    kernel = draw(st.sampled_from(list(KernelFamily)))
    estimator = draw(st.sampled_from([LOCAL_CONSTANT, LOCAL_LINEAR]))
    return Dataset(SCALAR, angles, values), queries, BandwidthVector(h), kernel, estimator


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch_problems())
def test_batched_rows_satisfy_identities_or_raise_their_cause(problem):
    data, queries, h, kernel, estimator = problem
    batch = QueryBatch(data, queries)
    fits = batch.estimates(h, kernel, estimator)
    weights = batch.weight_rows(h, kernel, estimator)[0]
    fitter = local_constant_estimate if estimator == LOCAL_CONSTANT \
        else local_linear_estimate
    for i, q in enumerate(queries):
        if fits.ok[i]:
            assert abs(weights[i].mean() - 1.0) <= 1e-10
            if estimator == LOCAL_LINEAR:
                moment = (weights[i][:, None] * batch.theta[i]).mean(axis=0)
                assert np.linalg.norm(moment) <= 1e-10
        else:
            with pytest.raises(CAUSE_ERRORS[fits.cause[i]]):
                fitter(data, TorusPoint(q), h, kernel)
