import math

import numpy as np
import pytest

from torfrech.torus import (
    TangentCoords,
    TorusPoint,
    canonicalize,
    chart,
    cos_gaps,
    inverse_chart,
)


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
    assert p.dim == 2
    assert p.angles[0] == pytest.approx(-math.pi / 2, abs=1e-15)
    with pytest.raises(ValueError):
        p.angles[0] = 1.0


def test_embed_values():
    assert np.allclose(TorusPoint([0.0]).embed(), [1.0, 0.0])
    assert np.allclose(TorusPoint([math.pi / 2]).embed(), [0.0, 1.0], atol=1e-15)
    assert np.allclose(TorusPoint([0.0, -math.pi]).embed(), [1.0, 0.0, -1.0, 0.0],
                       atol=1e-15)


def test_embed_pairs_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = TorusPoint(rng.uniform(-math.pi, math.pi, size=3))
        e = p.embed().reshape(3, 2)
        assert np.allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)


def test_chart_examples():
    x = TorusPoint([0.3, -1.2])
    assert np.allclose(chart(x, TangentCoords([0.0, 0.0])).angles, x.angles)
    assert chart(TorusPoint([0.0]), TangentCoords([math.pi / 2])).angles[0] == \
        pytest.approx(math.pi / 2)
    out = chart(TorusPoint([math.pi / 4, -math.pi / 2]),
                TangentCoords([math.pi, math.pi / 4]))
    assert np.allclose(out.angles, [-3 * math.pi / 4, -math.pi / 4], atol=1e-15)


def test_chart_dim_mismatch():
    with pytest.raises(ValueError):
        chart(TorusPoint([0.0]), TangentCoords([0.0, 0.0]))
    with pytest.raises(ValueError):
        inverse_chart(TorusPoint([0.0]), TorusPoint([0.0, 0.0]))
    with pytest.raises(ValueError):
        cos_gaps(TorusPoint([0.0]), TorusPoint([0.0, 0.0]))


def test_inverse_chart_examples():
    x = TorusPoint([0.7, -2.0, 1.1])
    assert np.allclose(inverse_chart(x, x).theta, 0.0)
    t = inverse_chart(TorusPoint([0.0]), TorusPoint([-3 * math.pi / 4]))
    assert t.theta[0] == pytest.approx(-3 * math.pi / 4)


def test_chart_round_trip_t3():
    rng = np.random.default_rng(2)
    for _ in range(500):
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=3))
        z = TorusPoint(rng.uniform(-math.pi, math.pi, size=3))
        back = chart(x, inverse_chart(x, z))
        delta = canonicalize(back.angles - z.angles)
        assert np.all(np.abs(delta) <= 1e-12)


def test_embedded_chart_identity():
    # the angle-sum form agrees with x*cos(t) + (R x)*sin(t) per circle
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=2))
        t = TangentCoords(rng.uniform(-math.pi, math.pi, size=2))
        z = chart(x, t)
        ex = x.embed().reshape(2, 2)
        rot = np.stack([-ex[:, 1], ex[:, 0]], axis=1)
        expected = ex * np.cos(t.theta)[:, None] + rot * np.sin(t.theta)[:, None]
        assert np.allclose(z.embed().reshape(2, 2), expected, atol=1e-12)


def test_shift_equivariance_exact_on_dyadics():
    # with dyadic angles and no wrap the sums are exact floats, so the
    # tangent coordinates must agree bitwise
    rng = np.random.default_rng(5)
    scale = 2.0 ** -20
    for _ in range(200):
        x = rng.integers(-2 ** 19, 2 ** 19, size=2) * scale
        z = rng.integers(-2 ** 19, 2 ** 19, size=2) * scale
        delta = rng.integers(-2 ** 18, 2 ** 18, size=2) * scale
        t0 = inverse_chart(TorusPoint(x), TorusPoint(z))
        t1 = inverse_chart(TorusPoint(x + delta), TorusPoint(z + delta))
        assert np.array_equal(t0.theta, t1.theta)


def test_shift_equivariance_wrapped():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-math.pi, math.pi, size=2)
        z = rng.uniform(-math.pi, math.pi, size=2)
        delta = rng.uniform(-math.pi, math.pi, size=2)
        t0 = inverse_chart(TorusPoint(x), TorusPoint(z))
        t1 = inverse_chart(TorusPoint(x + delta), TorusPoint(z + delta))
        gap = canonicalize(t0.theta - t1.theta)
        assert np.all(np.abs(gap) <= 1e-10)


def test_cos_gaps_values_and_identity():
    x = TorusPoint([0.4, -1.0])
    assert np.allclose(cos_gaps(x, x), 0.0)
    assert cos_gaps(TorusPoint([0.0]), TorusPoint([math.pi]))[0] == pytest.approx(2.0)
    assert cos_gaps(TorusPoint([0.0]), TorusPoint([math.pi / 2]))[0] == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = TorusPoint(rng.uniform(-math.pi, math.pi, size=3))
        b = TorusPoint(rng.uniform(-math.pi, math.pi, size=3))
        gaps = cos_gaps(a, b)
        assert np.all((gaps >= 0.0) & (gaps <= 2.0))
        assert np.allclose(gaps, 1.0 - np.cos(inverse_chart(a, b).theta), atol=1e-12)
