import math

import numpy as np
import pytest

from reference import chart, cos_gaps, inverse_chart
from torfrech.frechet import Dataset, QueryBatch
from torfrech.metric import ScalarSpace
from torfrech.torus import TorusPoint, canonicalize


def _observations(rng, n, d):
    angles = rng.uniform(-math.pi, math.pi, size=(n, d))
    return Dataset(ScalarSpace(-1.0, 1.0), angles, np.zeros(n))


def test_canonicalize_values():
    assert canonicalize(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)
    assert canonicalize(-math.pi) == -math.pi
    assert canonicalize(0.0) == 0.0
    assert canonicalize(math.pi) == -math.pi


def test_canonicalize_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonicalize(float("nan"))
    with pytest.raises(ValueError):
        canonicalize(float("inf"))


def test_canonicalize_range_random():
    rng = np.random.default_rng(0)
    a = rng.uniform(-50, 50, size=10_000)
    c = canonicalize(a)
    assert np.all(c >= -math.pi) and np.all(c < math.pi)
    # congruent mod 2*pi
    assert np.allclose(np.cos(c), np.cos(a), atol=1e-12)
    assert np.allclose(np.sin(c), np.sin(a), atol=1e-12)


def test_torus_point_canonicalizes_and_freezes():
    p = TorusPoint(np.array([3 * math.pi / 2, 0.25]))
    assert p.angles.shape == (2,)
    assert p.angles[0] == pytest.approx(-math.pi / 2, abs=1e-15)
    with pytest.raises(ValueError):
        p.angles[0] = 1.0


def test_chart_examples():
    x = [0.3, -1.2]
    assert np.allclose(chart(x, [0.0, 0.0]), x)
    assert chart([0.0], [math.pi / 2])[0] == pytest.approx(math.pi / 2)
    out = chart([math.pi / 4, -math.pi / 2], [math.pi, math.pi / 4])
    assert np.allclose(out, [-3 * math.pi / 4, -math.pi / 4], atol=1e-15)


def test_inverse_chart_examples():
    x = [0.7, -2.0, 1.1]
    assert np.allclose(inverse_chart(x, x), 0.0)
    assert inverse_chart([0.0], [-3 * math.pi / 4])[0] == pytest.approx(-3 * math.pi / 4)


def test_chart_round_trip_t3():
    rng = np.random.default_rng(2)
    for _ in range(500):
        x = rng.uniform(-math.pi, math.pi, size=3)
        z = rng.uniform(-math.pi, math.pi, size=3)
        delta = canonicalize(chart(x, inverse_chart(x, z)) - z)
        assert np.all(np.abs(delta) <= 1e-12)


def test_embedded_chart_identity():
    # the angle-sum form agrees with x*cos(t) + (R x)*sin(t) per circle
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-math.pi, math.pi, size=2)
        t = rng.uniform(-math.pi, math.pi, size=2)
        z = chart(x, t)
        ex = np.stack([np.cos(x), np.sin(x)], axis=1)
        rot = np.stack([-ex[:, 1], ex[:, 0]], axis=1)
        expected = ex * np.cos(t)[:, None] + rot * np.sin(t)[:, None]
        assert np.allclose(np.stack([np.cos(z), np.sin(z)], axis=1), expected, atol=1e-12)


def test_shift_equivariance_exact_on_dyadics():
    # with dyadic angles and no wrap the sums are exact floats, so the
    # tangent coordinates must agree bitwise
    rng = np.random.default_rng(5)
    scale = 2.0 ** -20
    for _ in range(200):
        x = rng.integers(-2 ** 19, 2 ** 19, size=2) * scale
        z = rng.integers(-2 ** 19, 2 ** 19, size=2) * scale
        delta = rng.integers(-2 ** 18, 2 ** 18, size=2) * scale
        t0 = inverse_chart(canonicalize(x), canonicalize(z))
        t1 = inverse_chart(canonicalize(x + delta), canonicalize(z + delta))
        assert np.array_equal(t0, t1)


def test_shift_equivariance_wrapped():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-math.pi, math.pi, size=2)
        z = rng.uniform(-math.pi, math.pi, size=2)
        delta = rng.uniform(-math.pi, math.pi, size=2)
        t0 = inverse_chart(x, z)
        t1 = inverse_chart(canonicalize(x + delta), canonicalize(z + delta))
        gap = canonicalize(t0 - t1)
        assert np.all(np.abs(gap) <= 1e-10)


def test_cos_gaps_values_and_identity():
    x = [0.4, -1.0]
    assert np.allclose(cos_gaps(x, x), 0.0)
    assert cos_gaps([0.0], [math.pi])[0] == pytest.approx(2.0)
    assert cos_gaps([0.0], [math.pi / 2])[0] == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi, size=3)
        b = rng.uniform(-math.pi, math.pi, size=3)
        gaps = cos_gaps(a, b)
        assert np.all((gaps >= 0.0) & (gaps <= 2.0))
        assert np.allclose(gaps, 1.0 - np.cos(inverse_chart(a, b)), atol=1e-12)


# README's table of removed names gives a replacement for each chart helper;
# each must agree with the reference it replaces.


def test_chart_replacement_matches_reference():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        for _ in range(100):
            x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
            t = rng.uniform(-math.pi, math.pi, size=d)
            replaced = canonicalize(x.angles + t)
            assert np.all((replaced >= -math.pi) & (replaced < math.pi))
            assert np.allclose(replaced, chart(x.angles, t), rtol=0.0, atol=1e-15)


def test_inverse_chart_replacements_match_reference():
    rng = np.random.default_rng(22)
    for d in (1, 2, 3):
        data = _observations(rng, 30, d)
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
        batch = QueryBatch(data, x.angles)
        for i, z in enumerate(data.angles):
            ref = inverse_chart(x.angles, z)
            assert np.allclose(canonicalize(z - x.angles), ref, rtol=0.0, atol=1e-14)
            assert np.allclose(batch.theta[0, i], ref, rtol=0.0, atol=1e-14)


def test_cos_gaps_replacements_match_reference():
    rng = np.random.default_rng(23)
    for d in (1, 2, 3):
        data = _observations(rng, 30, d)
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
        batch = QueryBatch(data, x.angles)
        for i, z in enumerate(data.angles):
            ref = cos_gaps(x.angles, z)
            assert np.allclose(1.0 - np.cos(z - x.angles), ref, rtol=0.0, atol=1e-14)
            assert np.allclose(batch.gaps[0, i], ref, rtol=0.0, atol=1e-14)


def test_embed_replacement_values():
    def embed(x):
        return np.column_stack([np.cos(x.angles), np.sin(x.angles)]).ravel()

    assert np.allclose(embed(TorusPoint([0.0])), [1.0, 0.0])
    assert np.allclose(embed(TorusPoint([math.pi / 2])), [0.0, 1.0], atol=1e-15)
    assert np.allclose(embed(TorusPoint([0.0, -math.pi])), [1.0, 0.0, -1.0, 0.0],
                       atol=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(100):
        e = embed(TorusPoint(rng.uniform(-math.pi, math.pi, size=3))).reshape(3, 2)
        assert np.allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)
