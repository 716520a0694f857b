import itertools
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
    local_linear_weights,
    local_moments,
    normalize_estimator,
)
from torfrech.kernels import BandwidthVector, KernelFamily, scalar_kernel
from torfrech.metric import (
    GraphLaplacianSpace,
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
    frechet_mean_oracle,
    isotonic_projection,
)
from torfrech.simulate import quadrature_grid
from torfrech.torus import TorusPoint, canonicalize

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
        batch = QueryBatch(data, x.angles)
        fits = batch.estimates(h, VM, LOCAL_CONSTANT)
        weights = batch.weight_rows(h, VM, LOCAL_CONSTANT)[0][0]
        m = local_moments(data, x, h, VM)
        oracle = np.dot(m.kernel_weights, data.responses) / m.kernel_weights.sum()
        assert fits.ok[0]
        assert fits.values[0] == pytest.approx(oracle, abs=1e-12)
        assert np.all(weights >= 0.0)
        assert weights.mean() == pytest.approx(1.0, abs=1e-10)


def test_local_constant_constant_responses():
    data = Dataset(SCALAR, np.array([[0.0], [1.0], [2.0]]), np.full(3, 7.25))
    fits = fit_queries(data, [[0.5]], BandwidthVector([0.4]), VM, LOCAL_CONSTANT)
    assert fits.ok[0]
    assert fits.values[0] == pytest.approx(7.25, abs=1e-12)


def test_local_constant_empty_neighborhood():
    data = Dataset(SCALAR, np.array([[0.0], [0.1]]), np.array([1.0, 2.0]))
    fits = fit_queries(data, [[math.pi]], BandwidthVector([0.1]), KernelFamily.UNIFORM,
                       LOCAL_CONSTANT)
    assert isinstance(fits.error(0), EmptyNeighborhoodError)


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
    batch = QueryBatch(data, x.angles)
    fits = batch.estimates(h, VM, LOCAL_CONSTANT)
    weights = batch.weight_rows(h, VM, LOCAL_CONSTANT)[0][0]
    assert fits.ok[0]
    oracle = frechet_mean_oracle(sphere, payloads, weights, math.pi / 180.0)
    obj_fit = sphere.objective(data.responses, weights, fits.values[0])
    obj_oracle = sphere.objective(data.responses, weights, oracle)
    bound = 2.0 * math.pi * np.abs(weights).sum() * 2.0 * (math.pi / 180.0)
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
    fit_ll, fit_lc = (fit_queries(data, [[0.0]], BandwidthVector([0.7]), VM, estimator)
                      for estimator in (LOCAL_LINEAR, LOCAL_CONSTANT))
    assert fit_ll.ok[0] and fit_lc.ok[0]
    assert fit_ll.values[0] == pytest.approx(fit_lc.values[0], abs=1e-12)


def test_local_linear_single_point_singular():
    data = Dataset(SCALAR, np.array([[0.2, 0.3]]), np.array([1.0]))
    m = local_moments(data, TorusPoint([0.0, 0.0]), BandwidthVector([0.5, 0.5]), VM)
    with pytest.raises(SingularDesignError):
        local_linear_weights(m)
    one = fit_queries(data, [[0.0, 0.0]], BandwidthVector([0.5, 0.5]), VM, LOCAL_LINEAR)
    assert isinstance(one.error(0), SingularDesignError)
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
        fits = fit_queries(data, x.angles[None], BandwidthVector([0.5, 0.5]), VM, LOCAL_LINEAR)
        assert fits.ok[0]
        assert fits.values[0] == pytest.approx(coef[0], abs=1e-8)


def test_local_linear_constant_responses():
    rng = np.random.default_rng(25)
    angles = rng.uniform(-math.pi, math.pi, size=(12, 2))
    data = Dataset(SCALAR, angles, np.full(12, -3.5))
    fits = fit_queries(data, [[0.3, 0.4]], BandwidthVector([0.6, 0.6]), VM, LOCAL_LINEAR)
    assert fits.ok[0]
    assert fits.values[0] == pytest.approx(-3.5, abs=1e-10)


def test_local_linear_matches_direct_wls():
    rng = np.random.default_rng(26)
    for _ in range(20):
        data = scalar_dataset(rng, 10, 2)
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=2))
        h = BandwidthVector([0.5, 0.5])
        m = local_moments(data, x, h, VM)
        if m.condition_number > 1e10:
            continue
        fits = fit_queries(data, x.angles[None], h, VM, LOCAL_LINEAR)
        assert fits.ok[0]
        design = np.column_stack([np.ones(10), m.theta])
        normal = design.T @ (m.kernel_weights[:, None] * design)
        rhs = design.T @ (m.kernel_weights * data.responses)
        alpha = np.linalg.solve(normal, rhs)[0]
        assert fits.values[0] == pytest.approx(alpha, abs=1e-8)


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
        for estimator in (LOCAL_CONSTANT, LOCAL_LINEAR):
            batches = QueryBatch(data, x.angles), QueryBatch(shifted, xs.angles)
            fit0, fit1 = (batch.estimates(h, VM, estimator) for batch in batches)
            if frechet.SINGULAR in (fit0.cause[0], fit1.cause[0]):
                continue
            assert fit0.ok[0] and fit1.ok[0]
            w0, w1 = (batch.weight_rows(h, VM, estimator)[0][0] for batch in batches)
            assert np.allclose(w0, w1, atol=1e-10)
            assert fit0.values[0] == pytest.approx(fit1.values[0], abs=1e-9)


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
    a, b = (fit_queries(data, x.angles[None], h, VM, LOCAL_LINEAR) for _ in range(2))
    wa, wb = (QueryBatch(data, x.angles).weight_rows(h, VM, LOCAL_LINEAR)[0] for _ in range(2))
    assert a.ok[0] and b.ok[0]
    assert np.array_equal(wa, wb)
    assert a.values[0] == b.values[0]


def _space_responses(kind, rng, n):
    """A response space of `kind` and n responses in it, near one another."""
    if kind == "scalar":
        return SCALAR, rng.normal(size=n)
    if kind == "sphere":
        raw = rng.standard_normal((n, 3)) * 0.4 + [0.0, 0.0, 1.0]
        return SphereSpace(2), raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if kind == "wasserstein":
        return WassersteinSpace(8, 0.0, 1.0), np.sort(rng.uniform(0.0, 1.0, (n, 8)), axis=1)
    space = GraphLaplacianSpace(4, 3.0)
    return space, space.edge_weights_to_laplacian(rng.uniform(0.0, 3.0, size=(n, 6)))


@pytest.mark.parametrize("kind", ["scalar", "sphere", "wasserstein", "laplacian"])
def test_batch_matches_single_query_path(kind):
    """A query fit as a batch of one (fit_queries on one row, weight_rows of a
    one-row QueryBatch) gives its row of a 7-query batch: the same cause, and
    values (geodesic distance on the sphere) and weights within 1e-12."""
    rng = np.random.default_rng(29)
    angles = rng.uniform(-math.pi, math.pi, size=(18, 2))
    space, responses = _space_responses(kind, rng, 18)
    data = Dataset(space, angles, responses)
    queries = rng.uniform(-math.pi, math.pi, size=(7, 2))
    h = BandwidthVector([0.6, 0.8])
    batch = QueryBatch(data, queries)
    for estimator in (LOCAL_CONSTANT, LOCAL_LINEAR):
        fits = batch.estimates(h, VM, estimator)
        weights = batch.weight_rows(h, VM, estimator)[0]
        for i, q in enumerate(queries):
            one = fit_queries(data, q[None], h, VM, estimator)
            assert fits.ok[i] and list(one.cause) == [fits.cause[i]]
            assert np.allclose(weights[i], QueryBatch(data, q).weight_rows(h, VM, estimator)[0][0],
                               atol=1e-12)
            gap = one.values[0] - fits.values[i]
            if kind == "sphere":  # the chord form of the geodesic distance, exact near zero
                gap = 2.0 * np.arcsin(np.linalg.norm(gap) / 2.0)
            assert np.max(np.abs(gap)) <= 1e-12


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


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator, bound", [(LOCAL_LINEAR, 2.75), (LOCAL_CONSTANT, 2.25)])
def test_weight_rows_working_set_is_a_few_row_arrays(estimator, bound):
    """One weight_rows call over a bandwidth stack holds a few (C * q, n) row
    arrays and nothing of size C * d * q * n. Local linear holds the kernel
    values, one K theta_a buffer and the weights it returns: under 2.75 such
    arrays (a K theta stack for mu2 reads 5, a copied b'theta 3.1). Local
    constant divides the kernel values in place and returns them: under 2.25
    (a second weight array read 4.1). A tensor grid's call, given its factor
    rows and (local linear) its rule as fit_chunks gives them, multiplies the
    kernel values into their own array with no gathered copy of either side
    (gathering both sides beside it read 3.0 for either estimator)."""
    rng = np.random.default_rng(63)
    data = scalar_dataset(rng, 600, 2)
    batch = QueryBatch(data, rng.uniform(-math.pi, math.pi, size=(20, 2)))
    hs = rng.uniform(0.4, 1.5, size=(6, 2))
    peak, (weights, ok) = _traced_peak(lambda: batch.weight_rows(hs, VM, estimator)[:2])
    assert ok.all() and weights.shape == (6 * 20, 600)
    assert peak <= bound * weights.nbytes
    grid = np.array(list(itertools.product([0.4, 0.9, 1.5], [0.6, 1.2])))
    factors = batch.factor_rows(VM, frechet._sides(grid))
    rule = frechet._linear_rule(*batch.moments(grid, VM, factors=factors)[1:])
    peak, (weights, ok) = _traced_peak(
        lambda: batch.weight_rows(grid, VM, estimator, rule, factors)[:2])
    assert ok.all() and weights.shape == (6 * 20, 600)
    assert peak <= bound * weights.nbytes


def test_theta_gaps_peak_is_its_output():
    """theta and gaps are computed in place of the angle differences, so the
    geometry of a (query, observation) grid peaks within 1.25x of the two
    arrays it returns (out-of-place wrapping and 1 - cos read 2x)."""
    rng = np.random.default_rng(64)
    data = scalar_dataset(rng, 600, 2)
    queries = data.angles[:40] + rng.uniform(-1.0, 1.0, size=(40, 2))
    peak, (theta, gaps) = _traced_peak(lambda: frechet._theta_gaps(data.angles, queries))
    assert theta.shape == gaps.shape == (40, 600, 2)
    assert peak <= 1.25 * (theta.nbytes + gaps.nbytes)


def test_theta_is_the_canonical_difference_bit_for_bit():
    """theta wraps the differences in place by shifts of 2 pi, which for
    canonical angles give np.mod's bits: it equals canonicalize(data - query)
    bit for bit, signed zeros and the ends of [-pi, pi) included."""
    rng = np.random.default_rng(65)
    below_pi = np.nextafter(np.pi, 0.0)
    edges = np.array([-np.pi, np.nextafter(-np.pi, 0.0), -below_pi, below_pi, 0.0, -0.0,
                      1e-300, -1e-300, np.pi / 2, -np.pi / 2])
    grid = np.array(list(itertools.product(edges, repeat=2)))
    data = np.concatenate([rng.uniform(-np.pi, np.pi, size=(400, 2)), grid])
    queries = np.concatenate([rng.uniform(-np.pi, np.pi, size=(30, 2)), grid])
    theta = frechet._theta_gaps(data, queries)[0]
    expected = canonicalize(data[None, :, :] - queries[:, None, :])
    assert np.array_equal(np.ascontiguousarray(theta).view(np.int64),
                          np.ascontiguousarray(expected).view(np.int64))


def _bandwidth_stacks(rng, d):
    """A tensor grid, the same grid less two candidates already seen, and a
    stack of random bandwidths, each (C, d)."""
    axes = [np.sort(rng.uniform(0.6, 1.6, size=3)) for _ in range(d)]
    tensor = np.array(list(itertools.product(*axes)))
    return {"tensor": tensor, "tensor less seen": np.delete(tensor, [0, len(tensor) // 2], axis=0),
            "random": rng.uniform(0.6, 1.6, size=(5, d))}


@pytest.mark.parametrize("kernel", list(KernelFamily))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stack_moments_match_compensated_sums(kernel, d):
    """Every row of a stack's moment table, from per-axis factor rows or from
    the stack's own kernel values, matches compensated sums over the product
    of the per-circle profiles. The atol of mu1 and mu2 is relative to the
    row's mass mu0: a signed sum may cancel to near zero."""
    rng = np.random.default_rng(70 + d)
    data = scalar_dataset(rng, 40, d)
    queries = rng.uniform(-math.pi, math.pi, size=(4, d))
    batch = QueryBatch(data, queries)
    for name, hs in _bandwidth_stacks(rng, d).items():
        # tensor grids share factor rows from d = 2 on; other stacks use their kernel values
        sides = frechet._sides(hs)
        assert (sides is not None) == (d > 1 and name != "random"), name
        factors = sides and batch.factor_rows(kernel, sides)
        kvals, mu0, mu1, mu2 = batch.moments(hs, kernel, factors=factors)
        assert (kvals is None) == (sides is not None), name
        for c, h in enumerate(hs):
            for i in range(len(queries)):
                k = np.prod(scalar_kernel(kernel, batch.gaps[i] / h ** 2), axis=1)
                ref0, ref1, ref2 = fsum_moments(batch.theta[i], k)
                row = c * len(queries) + i
                assert mu0[row] == pytest.approx(ref0, rel=1e-14, abs=0.0), (name, c, i)
                assert np.allclose(mu1[row], ref1, rtol=1e-13, atol=1e-13 * ref0), (name, c, i)
                assert np.allclose(mu2[row], ref2, rtol=1e-13, atol=1e-13 * ref0), (name, c, i)


def test_underflowed_kernel_mass_fails_as_before():
    """A query whose kernel mass underflows below the smallest normal float
    counts as empty whether its moments come from factor rows (a bandwidth
    grid) or from its own kernel values (one bandwidth): local constant rows
    fail as empty and local linear rows as singular. Each per-axis factor of
    the far query is a normal float near 1e-158; only their product is
    subnormal."""
    rng = np.random.default_rng(66)
    data = Dataset(SCALAR, rng.uniform(-0.3, 0.3, size=(30, 2)), rng.normal(size=30))
    queries = np.array([[0.0, 0.0], [np.pi - 0.01, np.pi - 0.01]])
    tiny_h = 0.0738
    hs = np.array(list(itertools.product([tiny_h, 0.5, 1.0], repeat=2)))
    assert frechet._sides(hs) is not None
    expect = {LOCAL_CONSTANT: frechet.EMPTY, LOCAL_LINEAR: frechet.SINGULAR}
    for estimator, cause in expect.items():
        stacked = {}
        for cands, rows, fits in fit_chunks(data, queries, hs, VM, estimator):
            for j, c in enumerate(range(cands.start, cands.stop)):
                stacked[c] = fits.cause[j * (rows.stop - rows.start):][:rows.stop - rows.start]
        single = QueryBatch(data, queries).estimates(BandwidthVector([tiny_h, tiny_h]), VM,
                                                     estimator).cause
        assert list(stacked[0]) == list(single) == [frechet.OK, cause], estimator
    for estimator, error in ((LOCAL_LINEAR, SingularDesignError),
                             (LOCAL_CONSTANT, EmptyNeighborhoodError)):
        far = fit_queries(data, queries[1:], BandwidthVector([tiny_h] * 2), VM, estimator)
        assert isinstance(far.error(0), error)


@pytest.mark.parametrize("q, n, c, cap", [(7, 5, 3, 40), (10, 6, 4, 64), (3, 9, 5, 1000),
                                          (1, 20, 6, 50), (4, 50, 2, 30)])
def test_fit_chunks_cover_the_grid_once_in_order_within_the_cap(q, n, c, cap, monkeypatch):
    """Chunks tile the (bandwidth, query) grid query slice by query slice, each
    call within the cap (one row per call when n exceeds it), and each chunk
    holds the fits of its own rows: for c random bandwidths and for a c x 3
    tensor grid, whose kernel values come from per-axis factor rows, under
    both estimators."""
    monkeypatch.setattr(frechet, "QUERY_CHUNK_CELLS", cap)
    rng = np.random.default_rng(62)
    data = scalar_dataset(rng, n, 2)
    queries = rng.uniform(-math.pi, math.pi, size=(q, 2))
    random = rng.uniform(0.5, 2.0, size=(c, 2))
    tensor = np.array(list(itertools.product(rng.uniform(0.5, 2.0, size=c),
                                             rng.uniform(0.5, 2.0, size=3))))
    assert frechet._sides(random) is None and frechet._sides(tensor) is not None
    for hs, estimator in itertools.product([random, tensor], [LOCAL_LINEAR, LOCAL_CONSTANT]):
        whole = QueryBatch(data, queries).estimates(hs, VM, estimator).values.reshape(-1, q)
        covered, order = np.zeros((len(hs), q), dtype=int), []
        for cands, rows, fits in fit_chunks(data, queries, hs, VM, estimator):
            size = (cands.stop - cands.start) * (rows.stop - rows.start)
            assert size * n <= cap if n <= cap else size == 1
            covered[cands, rows] += 1
            order.append((rows.start, cands.start))
            assert np.allclose(fits.values.reshape(-1, rows.stop - rows.start),
                               whole[cands, rows], rtol=1e-12, atol=1e-12)
        assert (covered == 1).all() and order == sorted(order)


@pytest.mark.parametrize("kernel", list(KernelFamily))
def test_table_chunks_match_per_call_fits(kernel):
    """A tensor grid's local linear chunks take b and sigma from one moment
    table per query slice; fitting each bandwidth alone builds them from its
    own kernel values. Both give the same causes and values to 1e-12."""
    rng = np.random.default_rng(67)
    data = scalar_dataset(rng, 60, 2)
    queries = rng.uniform(-math.pi, math.pi, size=(25, 2))
    hs = np.array(list(itertools.product([0.5, 0.9, 1.4], [0.6, 1.1])))
    assert frechet._sides(hs) is not None
    for cands, rows, fits in fit_chunks(data, queries, hs, kernel, LOCAL_LINEAR):
        for j, h in enumerate(hs[cands]):
            alone = fit_queries(data, queries[rows], BandwidthVector(h), kernel, LOCAL_LINEAR)
            part = slice(j * (rows.stop - rows.start), (j + 1) * (rows.stop - rows.start))
            assert list(fits.cause[part]) == list(alone.cause)
            assert np.allclose(fits.values[part], alone.values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("estimator", [LOCAL_CONSTANT, LOCAL_LINEAR])
def test_a_grid_evaluates_the_kernel_once_per_axis_side(estimator, monkeypatch):
    """fit_chunks over a 10 x 10 tensor grid evaluates the kernel once per
    distinct per-axis bandwidth (10 + 10 factor rows) for each query and
    observation, and multiplies every candidate's kernel values from those
    rows: at most 20 q n cells in all, where a kernel pass per candidate made
    100 q n, and no call returns more than QUERY_CHUNK_CELLS cells. Where one
    query's factor rows, 20 n cells, would pass the cap, the grid takes the
    per-call pass and no slice holds factor rows."""
    rng = np.random.default_rng(81)
    data = scalar_dataset(rng, 60, 2)
    queries = rng.uniform(-math.pi, math.pi, size=(80, 2))
    hs = np.array(list(itertools.product(np.linspace(0.1, 1.0, 10), repeat=2)))
    evaluate, factor_rows, cells, held = frechet.gap_weights, QueryBatch.factor_rows, [], []

    def counted(*args):
        out = evaluate(*args)
        cells.append(out.size)
        return out

    def slice_rows(*args):
        out = factor_rows(*args)
        held.append(out[0].size + out[2].size)
        return out

    monkeypatch.setattr(frechet, "gap_weights", counted)
    monkeypatch.setattr(QueryBatch, "factor_rows", slice_rows)
    slices = {rows.start for _, rows, _ in fit_chunks(data, queries, hs, VM, estimator)}
    assert len(slices) > 1 and held  # the factor rows are per query slice
    assert sum(cells) <= 20 * 80 * 60
    assert max(cells + held) <= frechet.QUERY_CHUNK_CELLS
    monkeypatch.setattr(frechet, "QUERY_CHUNK_CELLS", 20 * 60 - 1)
    cells.clear(), held.clear()
    for _ in fit_chunks(data, queries, hs, VM, estimator):
        pass
    assert not held and max(cells) <= frechet.QUERY_CHUNK_CELLS


def _reference_rule(mu0, mu1, mu2):
    """(ok, cond, sigma) by LAPACK: eigvalsh for cond, one LU solve for b."""
    eigs = np.linalg.eigvalsh(mu2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(eigs[:, 0] > 0.0, eigs[:, -1] / eigs[:, 0], np.inf)
    live = cond <= frechet.CONDITION_LIMIT
    beta = np.zeros_like(mu1)
    beta[live] = np.linalg.solve(mu2[live], mu1[live][..., None])[..., 0]
    sig = mu0 - np.einsum("rd,rd->r", mu1, beta)
    noise = mu0 + np.linalg.norm(mu1, axis=1) * np.linalg.norm(beta, axis=1)
    return live & (sig > frechet._SIGMA_GUARD * noise), cond, np.where(live, sig, np.nan)


def test_the_2x2_rule_matches_lapack_and_is_backward_stable():
    """The closed-form d = 2 rule against eigvalsh + solve on 20,000 moment
    rows: SPD mu2 with cond log-uniform on [1, 1e13] (40 set within 1e-4 of
    1e12), off-diagonals an ulp apart on every fifth row, zero (underflowed)
    rows, exactly singular rows, and diagonal rows s I (cond 1, where dlae2
    takes its a == c, b == 0 branch) and diag(s, t). ok matches on every row
    off the band of cond within 1e-3 relative of 1e12, which holds 42 rows (ok
    matches on them too with the reference LAPACK); cond and sigma agree to
    1e-12 relative off it. b's normwise relative residual is at most 1e-15,
    which Cramer's rule misses: it leaves residuals of eps * cond."""
    rng = np.random.default_rng(82)
    rows = 20_000
    cond = 10.0 ** rng.uniform(0.0, 13.0, rows)
    cond[3:2000:50] = frechet.CONDITION_LIMIT * (1.0 + rng.uniform(-1e-4, 1e-4, 40))
    turn, scale = rng.uniform(0.0, np.pi, rows), 10.0 ** rng.uniform(-6.0, 2.0, rows)
    cos, sin, small = np.cos(turn), np.sin(turn), scale / cond
    mu2 = np.empty((rows, 2, 2))
    mu2[:, 0, 0] = cos * cos * scale + sin * sin * small
    mu2[:, 1, 1] = sin * sin * scale + cos * cos * small
    mu2[:, 0, 1] = mu2[:, 1, 0] = cos * sin * (scale - small)
    mu2[::5, 0, 1] = np.nextafter(mu2[::5, 0, 1], np.inf)
    mu2[1::50] = 0.0
    mu2[2::50] = scale[2::50, None, None] * np.array([[1.0, 2.0], [2.0, 4.0]])
    mu2[4::50] = scale[4::50, None, None] * np.eye(2)
    mu2[6::50] = scale[6::50, None, None] * np.diag([1.0, 3.0])
    truth = rng.normal(size=(rows, 2))
    mu1 = np.einsum("rij,rj->ri", mu2, truth)
    mu0 = np.einsum("rd,rd->r", mu1, truth) + scale * rng.uniform(0.1, 1.0, rows)

    beta, ok, cond, sigma = frechet._linear_rule(mu0, mu1, mu2)
    ref_ok, ref_cond, ref_sigma = _reference_rule(mu0, mu1, mu2)
    band = np.abs(ref_cond / frechet.CONDITION_LIMIT - 1.0) <= 1e-3
    assert band.sum() == 42 and not ok[1::50].any() and not ok[2::50].any()
    assert (cond[4::50] == 1.0).all() and ok[4::50].all() and ok[6::50].all()
    assert np.array_equal(ok[~band], ref_ok[~band])
    assert np.array_equal(np.isinf(cond), np.isinf(ref_cond))
    finite = ~band & np.isfinite(ref_cond)
    assert np.allclose(cond[finite], ref_cond[finite], rtol=1e-12, atol=0.0)
    assert np.array_equal(np.isnan(sigma), np.isnan(ref_sigma))
    live = ~band & ~np.isnan(ref_sigma)
    assert np.allclose(sigma[live], ref_sigma[live], rtol=1e-12, atol=0.0)
    assert (beta[~np.isfinite(cond)] == 0.0).all()
    solved = cond <= frechet.CONDITION_LIMIT
    residual = np.abs(np.einsum("rij,rj->ri", mu2, beta) - mu1).max(axis=1)
    size = np.abs(mu2).sum(axis=2).max(axis=1) * np.abs(beta).max(axis=1)
    assert (residual[solved] <= 1e-15 * size[solved]).all()


def test_a_symmetric_design_fits_at_its_centre():
    """Observations at (+-t, 0) and (0, +-t) about the query make mu2 exactly
    t-scaled identity under equal bandwidths: a == c bit for bit and b = 0.
    Its rows have cond 1 and fit, alone and on a tensor grid's factor rows."""
    t = 0.3
    angles = np.array([[t, 0.0], [-t, 0.0], [0.0, t], [0.0, -t]])
    data = Dataset(SCALAR, angles, np.array([1.0, 2.0, 3.0, 4.0]))
    centre = np.zeros((1, 2))
    alone = fit_queries(data, centre, BandwidthVector([0.5, 0.5]), VM, LOCAL_LINEAR)
    assert alone.condition_number[0] == 1.0 and alone.cause[0] == frechet.OK
    hs = np.array(list(itertools.product([0.5, 0.8, 1.2], repeat=2)))
    assert frechet._sides(hs) is not None
    for cands, _, fits in fit_chunks(data, centre, hs, VM, LOCAL_LINEAR):
        equal = hs[cands, 0] == hs[cands, 1]
        assert (fits.condition_number[equal] == 1.0).all() and fits.ok.all()
    assert alone.values[0] == pytest.approx(2.5)


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
    for i, q in enumerate(queries):
        if fits.ok[i]:
            assert abs(weights[i].mean() - 1.0) <= 1e-10
            if estimator == LOCAL_LINEAR:
                moment = (weights[i][:, None] * batch.theta[i]).mean(axis=0)
                assert np.linalg.norm(moment) <= 1e-10
        else:
            one = fit_queries(data, q[None], h, kernel, estimator)
            assert isinstance(one.error(0), CAUSE_ERRORS[fits.cause[i]])
