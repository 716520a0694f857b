import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torfrech
from torfrech import metric
from torfrech.errors import DegenerateWeightsError, PayloadError, UnsupportedOracleError
from torfrech.frechet import Dataset, QueryBatch
from torfrech.kernels import BandwidthVector, KernelFamily
from torfrech.metric import (
    _weighted_average,
    GraphLaplacianSpace,
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
    frechet_mean_oracle,
    isotonic_projection,
    space_from_json,
    weighted_frechet_mean,
)

SCALAR = ScalarSpace(-10.0, 10.0)
SPHERE = SphereSpace(2)
WASS = WassersteinSpace(8, 0.0, 1.0)
LAP = GraphLaplacianSpace(3, 4.0)
DEG = math.pi / 180.0


def random_payload(space, rng):
    if isinstance(space, ScalarSpace):
        return float(rng.uniform(-5, 5))
    if isinstance(space, SphereSpace):
        v = rng.standard_normal(space.p + 1)
        return v / np.linalg.norm(v)
    if isinstance(space, WassersteinSpace):
        return np.sort(rng.uniform(space.a, space.b, size=space.grid_size))
    w = rng.uniform(0.0, space.c_w, size=space.n_nodes * (space.n_nodes - 1) // 2)
    return space.edge_weights_to_laplacian(w)


def test_distance_examples():
    assert SPHERE.distance([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)
    w4 = WassersteinSpace(4, 0.0, 1.0)
    assert w4.distance([0, 0, 0, 0], [1, 1, 1, 1]) == pytest.approx(1.0)
    lap2 = GraphLaplacianSpace(2, 5.0)
    a = [[3, -3], [-3, 3]]
    b = [[1, -1], [-1, 1]]
    assert lap2.distance(a, b) == pytest.approx(4.0)
    assert SCALAR.distance(1.5, -2.0) == pytest.approx(3.5)


@pytest.mark.parametrize("space", [SCALAR, SPHERE, WASS, LAP])
def test_metric_axioms(space):
    rng = np.random.default_rng(100)
    # arccos amplifies last-bit dot-product noise to ~sqrt(eps) at coincident
    # points, so the identity check is looser on the sphere
    self_tol = 1e-7 if isinstance(space, SphereSpace) else 1e-12
    for _ in range(1000):
        x = random_payload(space, rng)
        y = random_payload(space, rng)
        z = random_payload(space, rng)
        dxy = space.distance(x, y)
        assert dxy >= 0.0
        assert dxy == pytest.approx(space.distance(y, x), abs=1e-9)
        assert space.distance(x, x) <= self_tol
        assert dxy <= space.distance(x, z) + space.distance(z, y) + 1e-9
        assert dxy <= space.diameter() + 1e-9


def test_payload_validation_messages():
    with pytest.raises(PayloadError, match="unit norm"):
        SPHERE.validate([1.0, 1.0, 0.0])
    with pytest.raises(PayloadError, match="nondecreasing"):
        WASS.validate([0.1, 0.5, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0])
    with pytest.raises(PayloadError, match="symmetric"):
        LAP.validate([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
    with pytest.raises(PayloadError, match="row sums"):
        LAP.validate([[1, -1, 0], [-1, 2, 0], [0, 0, 1]])
    with pytest.raises(PayloadError, match="off-diagonal"):
        GraphLaplacianSpace(2, 1.0).validate([[3, -3], [-3, 3]])
    with pytest.raises(PayloadError, match="finite"):
        SCALAR.validate(float("nan"))


def test_mean_of_identical_points():
    rng = np.random.default_rng(101)
    for space in (SCALAR, SPHERE, WASS, LAP):
        p = random_payload(space, rng)
        res = weighted_frechet_mean(space, [p, p, p], [0.2, 0.5, 0.3])
        assert space.distance(res.value, p) <= 1e-8


def test_scalar_mean_closed_form():
    res = weighted_frechet_mean(SCALAR, [1.0, 2.0, 6.0], [1.0, 1.0, 1.0])
    assert res.value == (1.0 + 2.0 + 6.0) / 3.0  # exact arithmetic mean
    res = weighted_frechet_mean(SCALAR, [1.0, 3.0], [3.0, 1.0])
    assert res.value == pytest.approx(1.5, abs=1e-15)


def test_sphere_midpoint():
    res = weighted_frechet_mean(SPHERE, [[1, 0, 0], [0, 1, 0]], [1.0, 1.0])
    root = 1.0 / math.sqrt(2.0)
    assert np.allclose(res.value, [root, root, 0.0], atol=1e-4)
    assert res.converged


def test_sphere_mean_matches_grid_oracle():
    rng = np.random.default_rng(102)
    pts = [random_payload(SPHERE, rng) for _ in range(3)]
    weights = [0.5, 0.3, 0.2]
    res = weighted_frechet_mean(SPHERE, pts, weights)
    oracle = frechet_mean_oracle(SPHERE, pts, weights, DEG)
    assert SPHERE.distance(res.value, oracle) <= 0.02


def _sphere_gradient_and_cone(pts, w, y):
    """Riemannian gradient of sum_i w_i d(y, x_i)^2 without the samples whose
    antipode y is (within 1.4e-7 rad), and the slope of the cone those add."""
    s = np.clip(pts @ y, -1.0, 1.0)
    tip = s < -1.0 + 1e-14
    d = np.arccos(s[~tip])
    sin = np.sqrt(1.0 - s[~tip] ** 2)
    ratio = np.divide(d, sin, out=np.ones_like(d), where=sin > 1e-8)
    g = -2.0 * (w[~tip] * ratio) @ pts[~tip]
    g -= (g @ y) * y
    return float(np.linalg.norm(g)), -2.0 * math.pi * float(w[tip].sum())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_sphere_converged_rows_are_stationary(p):
    """A row reported converged has a gradient of at most 1e-9 sum|w|, or sits
    on an optimal cone tip (the antipode of negatively weighted samples); a
    stalled line search is never reported as converged. p = 2 takes the
    closed-form step, p = 1 and p = 3 the eigh step."""
    space = SphereSpace(p)
    rng = np.random.default_rng(108)
    converged = at_tip = 0
    for trial in range(60):
        n = int(rng.integers(2, 60))
        pts = rng.standard_normal((n, p + 1))
        if trial % 3:
            pts = pts * (0.3 if trial % 3 == 1 else 1.0) + rng.standard_normal(p + 1)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = rng.uniform(-0.3, 1.0, size=(8, n)) * rng.uniform(0.5, 3.0, size=(8, 1))
        if trial % 3 == 2:
            w[:, :2] *= -rng.uniform(1.0, 20.0, size=(8, 1))
        values, ok, _, conv = space.frechet_mean_batch(pts, w)
        for r in np.nonzero(ok & conv)[0]:
            converged += 1
            g, cone = _sphere_gradient_and_cone(pts, w[r], values[r])
            if g > 1e-9 * np.abs(w[r]).sum():
                assert g < cone
                at_tip += 1
    assert converged >= 400 and 0 < at_tip < converged


def test_s2_closed_form_step_matches_eigh_of_the_padded_hessian():
    """The S^2 step |H|^-1 g in closed form against eigh of the ambient Hessian
    padded with scale * y y' (the step every other p takes), on 12,000 random
    tangent-plane Hessians H = 2 (radial P + P M P) in four families: indefinite,
    isotropic (r = 0), one eigenvalue below the floor, and entries around 1e7
    (the scale near a cone tip). M carries a random part normal to the plane,
    which the step must ignore."""
    rng = np.random.default_rng(110)
    rows = 12_000
    family = np.arange(rows) % 4
    y = rng.standard_normal((rows, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    frame = np.linalg.qr(np.concatenate([y[:, :, None], rng.standard_normal((rows, 3, 2))],
                                        axis=2))[0]
    e1, e2 = frame[:, :, 1], frame[:, :, 2]  # an orthonormal basis of the tangent plane
    scale = np.where(family == 3, 1e7, 1.0) * rng.uniform(0.5, 2.0, rows)  # sum |w|
    floor = metric._SPHERE_CURVATURE_FLOOR * scale
    lam = rng.uniform(-1.0, 1.0, (rows, 2)) * scale[:, None]
    lam[family == 1, 1] = lam[family == 1, 0]
    lam[family == 2, 0] = rng.uniform(-1.0, 1.0, (family == 2).sum()) * floor[family == 2]
    proj = np.eye(3) - y[:, :, None] * y[:, None, :]
    radial = rng.uniform(-1.0, 1.0, rows) * scale
    normal = rng.standard_normal((rows, 3)) * scale[:, None]
    excess = (0.5 * (lam[:, 0, None, None] * e1[:, :, None] * e1[:, None, :]
                     + lam[:, 1, None, None] * e2[:, :, None] * e2[:, None, :])
              - radial[:, None, None] * proj
              + y[:, :, None] * normal[:, None, :] + normal[:, :, None] * y[:, None, :])
    g = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-6.0, 2.0, (rows, 1))
    g -= np.einsum("rm,rm->r", g, y)[:, None] * y

    hess = 2.0 * (radial[:, None, None] * proj + proj @ excess @ proj)
    lam_e, vec = np.linalg.eigh(hess + scale[:, None, None] * (np.eye(3) - proj))
    coef = np.einsum("rmk,rm->rk", vec, g) / np.maximum(np.abs(lam_e), floor[:, None])
    expected = np.einsum("rmk,rk->rm", vec, coef)
    expected -= np.einsum("rm,rm->r", expected, y)[:, None] * y

    step = metric._s2_abs_newton_step(y, radial, excess, g, floor)
    f_max = 1.0 / np.maximum(np.abs(lam), floor[:, None]).min(axis=1)
    err = np.linalg.norm(step - expected, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(g, axis=1) * f_max)


def test_sphere_solver_memory_envelope():
    """Four rows over 20,000 samples: no n x n (3.2 GB) or q x n x n array."""
    rng = np.random.default_rng(109)
    pts = rng.standard_normal((20_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = rng.uniform(-0.2, 1.0, size=(4, 20_000))
    tracemalloc.start()
    try:
        _, ok, _, conv = SPHERE.frechet_mean_batch(pts, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and conv.all()
    assert peak < 64 * 2 ** 20


def _rotation(rng):
    qm, r = np.linalg.qr(rng.standard_normal((3, 3)))
    qm *= np.sign(np.diag(r))
    return qm if np.linalg.det(qm) > 0 else -qm


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.floats(0.01, 0.75))
def test_sphere_mean_is_rotation_equivariant_and_deterministic(seed, n, radius):
    """Positive weights on a cap of radius < pi/4 have a unique mean (Afsari
    2011), so rotating the data rotates the solver's answer."""
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(3)
    center /= np.linalg.norm(center)
    tangent = rng.standard_normal((n, 3))
    tangent -= (tangent @ center)[:, None] * center
    norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    angle = radius * rng.uniform(0.0, 1.0, size=(n, 1))
    pts = np.cos(angle) * center + np.sin(angle) * tangent / np.maximum(norms, 1e-300)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = rng.uniform(0.05, 1.0, size=(3, n))
    rot = _rotation(rng)
    first = SPHERE.frechet_mean_batch(pts, w)
    again = SPHERE.frechet_mean_batch(pts, w)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    rotated = SPHERE.frechet_mean_batch(pts @ rot.T, w)
    assert first[3].all() and rotated[3].all()
    assert np.max(np.abs(rotated[0] - first[0] @ rot.T)) <= 1e-8


def test_degenerate_weights_error():
    with pytest.raises(DegenerateWeightsError):
        weighted_frechet_mean(SCALAR, [1.0, 2.0], [1.0, -1.0])
    with pytest.raises(DegenerateWeightsError):
        weighted_frechet_mean(SPHERE, [[1, 0, 0], [0, 1, 0]], [-1.0, 0.5])


def test_isotonic_projection_examples():
    assert np.allclose(isotonic_projection([1, 2, 3]), [1, 2, 3])
    assert np.allclose(isotonic_projection([1, 3, 2]), [1, 2.5, 2.5])
    assert np.allclose(isotonic_projection([3, 2, 1]), [2, 2, 2])


def test_isotonic_projection_properties():
    rng = np.random.default_rng(103)
    for _ in range(100):
        v = rng.standard_normal(rng.integers(1, 20))
        out = isotonic_projection(v)
        assert np.all(np.diff(out) >= -1e-12)
        assert np.allclose(isotonic_projection(out), out, atol=1e-12)  # idempotent
        assert out.mean() == pytest.approx(v.mean(), abs=1e-12)  # mean preserved


def test_wasserstein_mean_nonnegative_weights_needs_no_projection():
    rng = np.random.default_rng(104)
    for _ in range(50):
        pts = [random_payload(WASS, rng) for _ in range(4)]
        w = rng.uniform(0.1, 1.0, size=4)
        raw = np.average(np.stack(pts), axis=0, weights=w)
        assert np.allclose(isotonic_projection(raw), raw, atol=1e-12)
        res = weighted_frechet_mean(WASS, pts, w)
        assert np.allclose(res.value, raw, atol=1e-12)


def test_wasserstein_mean_negative_weights_projected():
    pts = [np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
           np.array([0.0, 0.4, 0.41, 0.42, 0.43, 0.44, 0.45, 1.0])]
    res = weighted_frechet_mean(WASS, pts, [1.0, -0.5])
    out = WASS.validate(res.value)
    assert np.all(np.diff(out) >= -1e-12)
    assert out[0] >= 0.0 and out[-1] <= 1.0


def test_laplacian_mean_two_point_example():
    lap2 = GraphLaplacianSpace(2, 5.0)
    pts = [np.array([[3.0, -3.0], [-3.0, 3.0]]), np.array([[1.0, -1.0], [-1.0, 1.0]])]
    res = weighted_frechet_mean(lap2, pts, [1.0, 1.0])
    assert np.allclose(res.value, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-6)
    oracle = frechet_mean_oracle(lap2, pts, [1.0, 1.0], 1e-3)
    assert np.allclose(oracle, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-3)


def test_laplacian_mean_invariants_and_descent():
    rng = np.random.default_rng(105)
    for _ in range(30):
        pts = [random_payload(LAP, rng) for _ in range(5)]
        w = rng.uniform(-0.2, 1.0, size=5)
        if w.sum() <= 0.1:
            w = np.abs(w)
        stacked = LAP.stack(pts)
        res = weighted_frechet_mean(LAP, pts, w)
        LAP.validate(res.value)  # all invariants hold
        # objective no worse than the clamped-average initializer
        target = np.tensordot(w, stacked, axes=1) / w.sum()
        iu, ju = np.triu_indices(3, 1)
        w0 = np.clip(-target[iu, ju], 0.0, LAP.c_w)
        init = LAP.edge_weights_to_laplacian(w0)
        assert res.objective <= LAP.objective(stacked, np.asarray(w), init) + 1e-9


def _laplacian_mean_one_row(space, stacked, weights, tol=1e-10, max_iter=2000):
    """Reference: the projected gradient on one weight row, as a plain loop."""
    k, (iu, ju) = space.n_nodes, np.triu_indices(space.n_nodes, 1)
    target = np.tensordot(weights, stacked, axes=1) / weights.sum()
    w = np.clip(-target[iu, ju], 0.0, space.c_w)
    step = 1.0 / (4.0 * k)
    lap = space.edge_weights_to_laplacian(w)
    f = np.sum((lap - target) ** 2)
    for it in range(1, max_iter + 1):
        resid = lap - target
        grad = 2.0 * (resid[iu, iu] + resid[ju, ju] - 2.0 * resid[iu, ju])
        w_new = np.clip(w - step * grad, 0.0, space.c_w)
        lap = space.edge_weights_to_laplacian(w_new)
        f_new = np.sum((lap - target) ** 2)
        if f - f_new < tol and np.max(np.abs(w_new - w)) < 1e-12 * space.c_w:
            return lap, it, True
        w, f = w_new, f_new
    return lap, max_iter, False


def _assert_box_kkt(space, sol, t):
    """Every row of the edge weights sol lies in the box [0, c_w] at a KKT point
    of ||L(s) - L(t)||^2."""
    iu, ju = np.triu_indices(space.n_nodes, 1)
    assert np.all((sol >= 0.0) & (sol <= space.c_w))
    # gradient of ||L(s) - L(t)||^2 in s: 2 (2 u_ij + deg_i + deg_j), u = s - t
    deg = np.diagonal(space.edge_weights_to_laplacian(sol - t), axis1=1, axis2=2)
    grad = 2.0 * (2.0 * (sol - t) + deg[:, iu] + deg[:, ju])
    at_zero, at_cap = sol == 0.0, sol == space.c_w
    inside = ~(at_zero | at_cap)
    assert np.all(grad[at_zero] >= -1e-9) and np.all(grad[at_cap] <= 1e-9)
    assert np.all(np.abs(grad[inside]) <= 1e-9)


@pytest.mark.parametrize("k", [3, 13])
def test_laplacian_batch_rows_are_box_kkt_points_and_match_single_rows(k):
    space = GraphLaplacianSpace(k, 4.0)
    rng = np.random.default_rng(110 + k)
    pts = space.stack([random_payload(space, rng) for _ in range(8)])
    w = rng.uniform(-0.8, 1.0, size=(25, 8))
    w[w.sum(axis=1) < 0.5] += 0.5
    values, ok, iters, conv = space.frechet_mean_batch(pts, w)
    assert ok.all() and conv.all()
    iu, ju = np.triu_indices(k, 1)
    target = np.einsum("qn,nij->qij", w, pts) / w.sum(axis=1)[:, None, None]
    off = target[:, iu, ju]
    assert np.any((off > 0.0) | (off < -space.c_w), axis=1).sum() >= 5  # outside the box
    # gradient of ||L(w) - T||^2 in the edge weights: dL/dw_e = E_ii + E_jj - E_ij - E_ji
    basis = np.zeros((iu.size, k, k))
    e = np.arange(iu.size)
    basis[e, iu, iu] = basis[e, ju, ju] = 1.0
    basis[e, iu, ju] = basis[e, ju, iu] = -1.0
    grad = 2.0 * np.einsum("qij,eij->qe", values - target, basis)
    edges = -values[:, iu, ju]
    at_zero, at_cap = edges == 0.0, edges == space.c_w
    inside = ~(at_zero | at_cap)
    assert at_zero.any() and at_cap.any() and inside.any()
    tol = 1e-9
    assert np.all(grad[at_zero] >= -tol)
    assert np.all(grad[at_cap] <= tol)
    assert np.all(np.abs(grad[inside]) <= tol)
    for r in range(w.shape[0]):
        alone, _, alone_iters, _ = space.frechet_mean_batch(pts, w[r:r + 1])
        assert np.array_equal(alone[0], values[r])  # bit for bit, whatever the batch
        assert alone_iters[0] == iters[r]
        ref, ref_iters, ref_conv = _laplacian_mean_one_row(space, pts, w[r])
        assert np.sum((values[r] - target[r]) ** 2) <= np.sum((ref - target[r]) ** 2) \
            + 1e-12 * (1.0 + np.sum(off[r] ** 2)) and ref_conv


def test_laplacian_stop_rule_is_relative_to_the_edge_weight_cap():
    """The same problem with payloads and cap scaled by 2^20 takes the same
    iterations to the scaled solution: the step test is in units of c_w."""
    k, scale = 13, 2.0 ** 20
    unit, big = GraphLaplacianSpace(k, 1.0), GraphLaplacianSpace(k, scale)
    rng = np.random.default_rng(140)
    pts = unit.stack([random_payload(unit, rng) for _ in range(20)])
    w = rng.uniform(-0.8, 1.0, size=(101, 20))
    w[w.sum(axis=1) < 0.5] += 0.5
    values, ok, iters, conv = unit.frechet_mean_batch(pts, w)
    big_values, big_ok, big_iters, big_conv = big.frechet_mean_batch(pts * scale, w)
    assert ok.all() and conv.all() and big_ok.all() and big_conv.all()
    assert np.array_equal(big_iters, iters) and np.array_equal(big_values, values * scale)


def _signed_weight_rows(space, sigma, seed):
    """Payload edge weights drawn from the box and weight rows from N(0.3, sigma^2)
    that sum to a positive value: (edges, weights, means, iterations, converged)."""
    rng = np.random.default_rng(seed)
    edges = rng.uniform(0.0, space.c_w, size=(12, space.n_nodes * (space.n_nodes - 1) // 2))
    w = rng.normal(0.3, sigma, size=(40, 12))
    w = w[w.sum(axis=1) > 0.0]
    values, ok, iters, conv = space.frechet_mean_batch(
        space.edge_weights_to_laplacian(edges), w)
    assert ok.all()
    return edges, w, values, iters, conv


# Seed 681 at k = 13, sigma = 2 holds a row (14) on which the bare active-set
# step, without the projected-gradient fallback, cycles past the iteration cap.
@pytest.mark.parametrize("k,sigma,seed", [(5, 0.5, 1), (5, 2.0, 2), (5, 10.0, 3),
                                          (13, 0.5, 4), (13, 2.0, 5), (13, 10.0, 6),
                                          (13, 2.0, 681)])
def test_laplacian_signed_weight_rows_reach_the_box_optimum_within_the_cap(k, sigma, seed):
    """Every row converges within the cap at a feasible box-KKT point whose
    objective is no worse than that of a long projected gradient."""
    space = GraphLaplacianSpace(k, 2.0)
    edges, w, values, iters, conv = _signed_weight_rows(space, sigma, seed)
    assert conv.all() and iters.max() <= metric._LAPLACIAN_MAX_ITER
    iu, ju = np.triu_indices(k, 1)
    t = _weighted_average(edges, w)
    assert not np.all((t >= 0.0) & (t <= space.c_w))  # some rows lie outside the box
    _assert_box_kkt(space, -values[:, iu, ju], t)
    pts, target = space.edge_weights_to_laplacian(edges), space.edge_weights_to_laplacian(t)
    for r in range(w.shape[0]):
        ref, _, ref_conv = _laplacian_mean_one_row(space, pts, w[r], max_iter=5000)
        assert ref_conv and np.sum((values[r] - target[r]) ** 2) <= \
            np.sum((ref - target[r]) ** 2) + 1e-12 * (1.0 + np.sum(t[r] ** 2))


def test_laplacian_rows_on_100_nodes_converge_within_the_cap():
    """Iterations grow slowly with the node count. Taking only the clipped
    active-set point or the projected-gradient point, without the search along
    the projection arc, left 2 of these 100-node rows at the cap."""
    space = GraphLaplacianSpace(100, 2.0)
    edges, w, values, iters, conv = _signed_weight_rows(space, 2.0, 0)
    assert conv.all() and iters.max() <= metric._LAPLACIAN_MAX_ITER
    iu, ju = np.triu_indices(100, 1)
    _assert_box_kkt(space, -values[:, iu, ju], _weighted_average(edges, w))


def test_laplacian_rows_at_the_iteration_cap_are_reported_nonconverged(monkeypatch):
    """With a cap of one iteration, rows whose target lies in the box converge at
    once, the others come back unconverged, and a batched fit names them nonconverged."""
    monkeypatch.setattr(metric, "_LAPLACIAN_MAX_ITER", 1)
    space = GraphLaplacianSpace(5, 2.0)
    rng = np.random.default_rng(150)
    edges = rng.uniform(0.0, space.c_w, size=(60, 10))
    edges[rng.random(edges.shape) < 0.3] = space.c_w
    angles = rng.uniform(-math.pi, math.pi, size=(60, 2))
    batch = QueryBatch(Dataset(space, angles, space.edge_weights_to_laplacian(edges)),
                       rng.uniform(-math.pi, math.pi, size=(40, 2)))
    h, kernel = BandwidthVector([0.4, 0.4]), KernelFamily.VON_MISES
    w, ok = batch.weight_rows(h, kernel, "ll")[:2]
    t = _weighted_average(edges, w[ok])
    in_box = np.all((t >= 0.0) & (t <= space.c_w), axis=1)
    assert in_box.sum() >= 5 and (~in_box).sum() >= 5
    _, solved, iters, conv = space.frechet_mean_batch(batch.data.responses, w[ok])
    assert solved.all() and np.array_equal(conv, in_box) and np.all(iters == 1)
    cause = batch.estimates(h, kernel, "ll").cause[ok]
    assert np.all(cause[in_box] == "ok") and np.all(cause[~in_box] == "nonconverged")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 13]), st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.floats(0.0, 1.5))
def test_laplacian_mean_rows_are_converged_box_kkt_points(k, seed, n, spread):
    """Signed weights: every row converges inside the box at a box-KKT point and
    equals its batch-of-one solve bit for bit; a row whose weighted average t of
    the edge weights lies in the box returns L(t) exactly."""
    space = GraphLaplacianSpace(k, 2.0)
    rng = np.random.default_rng(seed)
    edges = rng.uniform(0.0, space.c_w, size=(n, k * (k - 1) // 2))
    edges[rng.random(edges.shape) < 0.2] = 0.0
    edges[rng.random(edges.shape) < 0.1] = space.c_w
    pts = space.edge_weights_to_laplacian(edges)
    w = rng.uniform(-spread, 1.0, size=(6, n))
    w[0] = np.abs(w[0]) + 0.01  # a convex combination: t in the box up to rounding
    w[:, 0] += 0.1 - np.minimum(w.sum(axis=1), 0.1)
    values, ok, iters, conv = space.frechet_mean_batch(pts, w)
    assert ok.all() and conv.all()
    iu, ju = np.triu_indices(k, 1)
    t = _weighted_average(edges, w)
    _assert_box_kkt(space, -values[:, iu, ju], t)
    in_box = np.all((t >= 0.0) & (t <= space.c_w), axis=1)
    assert np.array_equal(values[in_box], space.edge_weights_to_laplacian(t[in_box]))
    for r in range(w.shape[0]):
        alone, _, alone_iters, _ = space.frechet_mean_batch(pts, w[r:r + 1])
        assert np.array_equal(alone[0], values[r]) and alone_iters[0] == iters[r]


@pytest.mark.parametrize("space", [SCALAR, WASS])
def test_flat_space_rows_equal_their_batch_of_one_means(space):
    """A batched scalar or Wasserstein mean is the batch-of-one mean of each
    row bit for bit, signed weights (and so projected rows) included."""
    rng = np.random.default_rng(112)
    pts = space.stack([random_payload(space, rng) for _ in range(50)])
    w = rng.uniform(-0.6, 1.0, size=(40, 50))
    values, ok, _, _ = space.frechet_mean_batch(pts, w)
    assert ok.all()
    for r in range(w.shape[0]):
        assert np.array_equal(space.frechet_mean_batch(pts, w[r:r + 1])[0][0], values[r])


def _oracle_gap_bound(space, weights, res):
    wsum = np.sum(np.abs(weights))
    if isinstance(space, ScalarSpace):
        return 2.0 * wsum * space.diameter() * res
    if isinstance(space, SphereSpace):
        return 2.0 * math.pi * wsum * 2.0 * res
    return 8.0 * wsum * space.c_w * res + 4.0 * wsum * res ** 2


@pytest.mark.parametrize("space,res", [
    (SCALAR, 1e-3),
    (SPHERE, DEG),
    (GraphLaplacianSpace(2, 5.0), 1e-3),
])
def test_solver_objective_within_oracle_bound(space, res):
    rng = np.random.default_rng(106)
    for trial in range(50):
        pts = [random_payload(space, rng) for _ in range(5)]
        if isinstance(space, SphereSpace):
            w = rng.uniform(0.1, 1.0, size=5)
        else:
            w = rng.uniform(-0.3, 1.0, size=5)
            if w.sum() <= 0.1:
                w = np.abs(w)
        solver = weighted_frechet_mean(space, pts, w)
        oracle = frechet_mean_oracle(space, pts, w, res)
        stacked = space.stack(pts)
        obj_oracle = space.objective(stacked, np.asarray(w, float), oracle)
        gap = obj_oracle - solver.objective
        assert gap >= -1e-6 * max(1.0, abs(obj_oracle))
        assert gap <= _oracle_gap_bound(space, w, res)


def test_oracle_unsupported_space():
    with pytest.raises(UnsupportedOracleError):
        frechet_mean_oracle(WASS, [random_payload(WASS, np.random.default_rng(0))],
                            [1.0], 0.1)
    with pytest.raises(UnsupportedOracleError):
        frechet_mean_oracle(GraphLaplacianSpace(4, 1.0),
                            [np.zeros((4, 4))], [1.0], 0.5)


def test_oracle_scalar_and_singleton_examples():
    assert frechet_mean_oracle(SCALAR, [0.0, 2.0], [1.0, 1.0], 1e-3) == pytest.approx(1.0)
    p = random_payload(SPHERE, np.random.default_rng(1))
    best = frechet_mean_oracle(SPHERE, [p], [1.0], DEG)
    assert SPHERE.distance(best, p) <= DEG


def test_json_codecs_round_trip():
    rng = np.random.default_rng(107)
    descriptors = [{"kind": "scalar", "lo": -10.0, "hi": 10.0}, {"kind": "sphere", "p": 2},
                   {"kind": "wasserstein", "grid": 8, "a": 0.0, "b": 1.0},
                   {"kind": "graph_laplacian", "k": 3, "c_w": 4.0}]
    for space, descriptor in zip((SCALAR, SPHERE, WASS, LAP), descriptors):
        # exact keys, values and value types (an int field must not turn float)
        assert [(k, type(v), v) for k, v in sorted(space.to_json().items())] == \
            [(k, type(v), v) for k, v in sorted(descriptor.items())]
        rebuilt = space_from_json(space.to_json())
        assert rebuilt.to_json() == space.to_json()
        p = random_payload(space, rng)
        back = rebuilt.validate(space.payload_to_json(p))
        assert space.distance(p, back) <= 1e-12


def test_every_package_export_resolves():
    assert [name for name in torfrech.__all__ if not hasattr(torfrech, name)] == []


def test_space_from_json_errors():
    with pytest.raises(ValueError):
        space_from_json({"kind": "banana"})
    with pytest.raises(ValueError):
        space_from_json({"kind": "sphere"})
    with pytest.raises(ValueError):
        space_from_json([1, 2])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([SCALAR, SPHERE, WASS, LAP]), st.integers(0, 2 ** 32 - 1))
def test_payload_json_round_trip_is_bitwise(space, seed):
    p = space.validate(random_payload(space, np.random.default_rng(seed)))
    back = space.validate(json.loads(json.dumps(space.payload_to_json(p))))
    assert np.asarray(back).dtype == np.asarray(p).dtype
    assert np.array_equal(back, p)
    assert np.asarray(back).tobytes() == np.asarray(p).tobytes()


def _payload_variant(space, rng, kind):
    """A random payload of the space, kept valid or broken one way, as JSON would give it."""
    p = np.array(random_payload(space, rng), dtype=float)
    if kind == "nan":
        p.flat[rng.integers(p.size)] = np.nan
    elif kind == "longer":
        p = np.append(p.ravel(), 0.0)
    elif kind == "scaled":  # off the sphere, out of [a, b] or past the edge cap
        p = p * 1.5 + 0.5 * (space is not LAP)
    elif kind == "reversed":  # decreasing quantiles
        p = np.flip(p)
    elif kind == "asymmetric":  # a Laplacian whose rows still sum to zero
        p = p + (np.array([[0.0, 0.5, -0.5], [-0.5, 0.0, 0.5], [0.5, -0.5, 0.0]])
                 if space is LAP else 0.0)
    elif kind == "flat":  # a Laplacian may come flat
        p = p.ravel()
    return p.tolist()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([SCALAR, SPHERE, WASS, LAP]), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(["valid", "valid", "flat", "nan", "longer", "scaled",
                                 "reversed", "asymmetric"]), min_size=1, max_size=6))
def test_stack_agrees_with_validate_row_by_row(space, seed, kinds):
    """A stack is valid exactly when each payload is, holds each payload's canonical
    form bit for bit, and otherwise raises the first bad payload's own error."""
    rng = np.random.default_rng(seed)
    payloads = [_payload_variant(space, rng, kind) for kind in kinds]
    rows = []
    for p in payloads:
        try:
            rows.append(np.asarray(space.validate(p)))
        except PayloadError as exc:
            rows.append(str(exc))
    errors = [r for r in rows if isinstance(r, str)]
    if errors:
        with pytest.raises(PayloadError) as info:
            space.stack(payloads)
        assert str(info.value) == errors[0]
    else:
        assert space.stack(payloads).tobytes() == np.stack(rows).tobytes()


@pytest.mark.parametrize("c_w", [1e6, 2.0 ** 20])
def test_laplacian_validation_tolerance_scales_with_the_edge_weight_cap(c_w):
    # a diagonal sums 12 edge weights of size c_w, so its rounding exceeds 1e-9
    space = GraphLaplacianSpace(13, c_w)
    edges = np.random.default_rng(int(c_w)).uniform(0.0, c_w, size=(200, 78))
    laps = space.edge_weights_to_laplacian(edges)
    for lap in laps:
        space.validate(lap)
    bad = laps[0].copy()
    bad[0, 0] += c_w * 1e-6
    with pytest.raises(PayloadError, match="row sums"):
        space.validate(bad)


def test_laplacian_descriptor_costs_no_memory_quadratic_in_k():
    tracemalloc.start()
    try:
        space = space_from_json({"kind": "graph_laplacian", "k": 2000, "c_w": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n_nodes == 2000
    assert peak < 2 ** 20
