import math

import numpy as np
import pytest

from reference import cos_gaps, gauss_nodes, kernel_moment, scalar_kernel, toroidal_weight
from torfrech.kernels import BandwidthVector, KernelFamily, gap_weights

ALL_FAMILIES = [KernelFamily.VON_MISES, KernelFamily.EXPONENTIAL, KernelFamily.UNIFORM]


def profile_tail_integral(kernel, j, k, r_max, panels=80):
    """1-d quadrature of L^k(r^2) r^j over [0, r_max] (independent oracle)."""
    r, w = gauss_nodes(0.0, r_max, panels)
    return float(np.sum(w * scalar_kernel(kernel, r ** 2) ** k * r ** j))


def test_kernel_family_names():
    assert KernelFamily.from_name("vonmises") is KernelFamily.VON_MISES
    assert KernelFamily.from_name("von_mises") is KernelFamily.VON_MISES
    assert KernelFamily.from_name("Uniform") is KernelFamily.UNIFORM
    with pytest.raises(ValueError):
        KernelFamily.from_name("epanechnikov")


def test_bandwidth_vector_validation():
    h = BandwidthVector([0.5, 1.5])
    assert h.dim == 2
    with pytest.raises(ValueError):
        BandwidthVector([0.5, 0.0])
    with pytest.raises(ValueError):
        BandwidthVector([0.5, -1.0])
    with pytest.raises(ValueError):
        BandwidthVector([float("inf")])


def test_scalar_kernel_values():
    assert scalar_kernel(KernelFamily.VON_MISES, 0.0) == 1.0
    assert scalar_kernel(KernelFamily.VON_MISES, 1.0) == pytest.approx(0.36787944, abs=1e-8)
    assert scalar_kernel(KernelFamily.UNIFORM, 1.5) == 0.0
    assert scalar_kernel(KernelFamily.UNIFORM, 1.0) == 1.0
    assert scalar_kernel(KernelFamily.EXPONENTIAL, 4.0) == pytest.approx(math.exp(-2.0))


def test_scalar_kernel_nonincreasing_grid():
    r = np.linspace(0.0, 8.0, 400)
    for fam in ALL_FAMILIES:
        vals = scalar_kernel(fam, r)
        assert np.all(np.diff(vals) <= 1e-15)


def test_toroidal_weight_values():
    assert toroidal_weight(KernelFamily.VON_MISES, [0.3], [0.3], [1.0]) == pytest.approx(1.0)
    assert toroidal_weight(KernelFamily.VON_MISES, [0.3], [0.3 + math.pi / 2], [1.0]) == \
        pytest.approx(math.exp(-1.0), abs=1e-12)
    assert toroidal_weight(KernelFamily.VON_MISES, [0.0, 1.0], [math.pi, 1.0], [1.0, 0.5]) == \
        pytest.approx(math.exp(-2.0), abs=1e-12)


@pytest.mark.parametrize("fam", ALL_FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gap_weights_match_toroidal_weight(fam, d):
    rng = np.random.default_rng(60 + d)
    hs = rng.uniform(0.2, 1.5, size=(4, d))
    pairs = rng.uniform(-math.pi, math.pi, size=(40, 2, d))
    batch = gap_weights(fam, np.array([cos_gaps(x, z) for x, z in pairs]), hs)
    ref = np.array([[toroidal_weight(fam, x, z, h) for x, z in pairs] for h in hs])
    if fam is KernelFamily.UNIFORM:
        assert 0.0 < ref.mean() < 1.0  # points inside and outside the support
        assert np.array_equal(batch, ref)
    else:
        # exp of the summed penalties against the product of per-circle exps
        np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=0.0)



# README's table of removed names replaces the scalar kernel helpers with
# gap_weights calls; each must agree with the reference it replaces.


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_scalar_kernel_replacement_matches_reference(fam):
    r = np.concatenate([np.linspace(0.0, 4.0, 81), [1.0 - 1e-12, 1.0 + 1e-12, 50.0]])
    replaced = gap_weights(fam, r[:, None], np.ones((1, 1)))[0]
    assert replaced.shape == r.shape
    np.testing.assert_allclose(replaced, scalar_kernel(fam, r), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_toroidal_weight_replacement_matches_reference(fam):
    rng = np.random.default_rng(61)
    for d in (1, 2, 3):
        for _ in range(40):
            x, z = rng.uniform(-math.pi, math.pi, size=(2, d))
            h = BandwidthVector(rng.uniform(0.2, 1.5, size=d))
            gaps = 1.0 - np.cos(z - x)
            replaced = gap_weights(fam, gaps[None], h.h[None])[0, 0]
            assert replaced == pytest.approx(toroidal_weight(fam, x, z, h.h),
                                             rel=1e-13, abs=0.0)

def test_toroidal_weight_symmetry_exact():
    rng = np.random.default_rng(11)
    h = [0.4, 0.9]
    for fam in ALL_FAMILIES:
        for _ in range(50):
            x, z = rng.uniform(-math.pi, math.pi, size=(2, 2))
            assert toroidal_weight(fam, x, z, h) == toroidal_weight(fam, z, x, h)


def test_toroidal_weight_monotone_in_gap():
    h = [0.6, 0.8]
    x = [0.0, 0.0]
    deltas = np.linspace(0.0, math.pi, 60)
    for fam in ALL_FAMILIES:
        for axis in range(2):
            vals = []
            for t in deltas:
                ang = [0.0, 0.0]
                ang[axis] = t
                vals.append(toroidal_weight(fam, x, ang, h))
            assert np.all(np.diff(vals) <= 1e-15)


def test_odd_moments_vanish():
    for fam in ALL_FAMILIES:
        for h_val in (0.1, 0.3, 1.0):
            h = [h_val, h_val]
            for j in ([1, 0], [0, 3], [1, 2]):
                for power in (1, 2):
                    val = kernel_moment(fam, h, j, power=power, quad_points=256)
                    assert abs(val) <= 1e-8


def test_von_mises_moment_matches_small_bandwidth_limit():
    # ratio moment/h converges to 2^{3/2} * integral of L(r^2) dr as h -> 0
    limit = 2.0 ** 1.5 * profile_tail_integral(KernelFamily.VON_MISES, 0, 1, 12.0)
    assert limit == pytest.approx(2.0 ** 1.5 * math.sqrt(math.pi) / 2.0, rel=1e-10)
    errors = []
    for h_val in (0.2, 0.1, 0.05):
        val = kernel_moment(KernelFamily.VON_MISES, [h_val], [0], power=1, quad_points=2048)
        errors.append(abs(val / h_val - limit))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] / limit < 1e-3


def test_uniform_moment_closed_form():
    h_val = 0.1
    expected = 2.0 * math.acos(1.0 - h_val ** 2)
    val = kernel_moment(KernelFamily.UNIFORM, [h_val], [0], power=1, quad_points=256)
    assert val == pytest.approx(expected, rel=1e-12)


def test_profile_moments_finite():
    # tail integrals stabilize once the integration range doubles
    for fam in ALL_FAMILIES:
        for k in (1, 2):
            for j in range(0, 7):
                prev = profile_tail_integral(fam, j, k, 40.0)
                curr = profile_tail_integral(fam, j, k, 80.0)
                assert prev > 0.0
                assert abs(curr - prev) / curr < 1e-6
