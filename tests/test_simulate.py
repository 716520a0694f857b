import math

import numpy as np
import pytest

from torfrech import simulate
from torfrech.bandwidth import GridSpec
from torfrech.simulate import (
    SimConfig,
    integrated_squared_error,
    quadrature_grid,
    regression_surface,
    run_study,
    sample_uniform_torus,
    sample_vmf_many,
)


def test_regression_surface_values():
    out = regression_surface([[0.0, 0.0], [math.pi / 2, 0.0], [math.pi / 2, math.pi / 2]])
    assert np.allclose(out[0], [1, 0, 0], atol=1e-15)
    assert np.allclose(out[1], [0, 0, 1], atol=1e-15)
    assert np.allclose(out[2], [0, 1, 0], atol=1e-15)


def test_regression_surface_unit_norm_grid():
    axis = np.linspace(-math.pi, math.pi, 200, endpoint=False)
    psi, phi = np.meshgrid(axis, axis, indexing="ij")
    out = regression_surface(np.stack([psi.ravel(), phi.ravel()], axis=1))
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-10


def test_sample_uniform_torus_moments():
    rng = np.random.default_rng(50)
    draws = sample_uniform_torus(2, 100_000, rng)
    assert draws.shape == (100_000, 2)
    assert np.all((draws >= -math.pi) & (draws < math.pi))
    assert np.max(np.abs(np.cos(draws).mean(axis=0))) <= 0.02
    assert np.max(np.abs((np.cos(draws) ** 2).mean(axis=0) - 0.5)) <= 0.02
    again = sample_uniform_torus(2, 100, np.random.default_rng(7))
    assert np.array_equal(again, sample_uniform_torus(2, 100, np.random.default_rng(7)))


def test_sample_vmf_concentration():
    rng = np.random.default_rng(51)
    mu = np.array([0.0, 0.0, 1.0])
    close = 0
    for _ in range(100):
        y = sample_vmf_many(mu[None], 1e6, rng)[0]
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-10
        if math.acos(min(1.0, float(y @ mu))) < 0.01:
            close += 1
    assert close >= 99


def test_sample_vmf_mean_resultant():
    rng = np.random.default_rng(52)
    mu = np.array([1.0, 0.0, 0.0])
    draws = sample_vmf_many(np.tile(mu, (10_000, 1)), 10.0, rng)
    expected = 1.0 / math.tanh(10.0) - 1.0 / 10.0
    assert abs(float((draws @ mu).mean()) - expected) <= 0.01


def test_sample_vmf_near_uniform_at_tiny_kappa():
    rng = np.random.default_rng(53)
    mu = np.array([0.0, 1.0, 0.0])
    draws = sample_vmf_many(np.tile(mu, (10_000, 1)), 0.01, rng)
    assert np.linalg.norm(draws.mean(axis=0)) < 0.05


def test_sample_vmf_validation():
    rng = np.random.default_rng(54)
    with pytest.raises(ValueError):
        sample_vmf_many([[1.0, 0.0, 0.0]], 0.0, rng)
    with pytest.raises(ValueError):
        sample_vmf_many([[2.0, 0.0, 0.0]], 1.0, rng)


def test_quadrature_grid_midpoints():
    angles, area = quadrature_grid(10)
    assert angles.shape == (100, 2)
    assert area == pytest.approx((2 * math.pi / 10) ** 2)
    assert np.all(angles > -math.pi) and np.all(angles < math.pi)


def test_integrated_squared_error_cases():
    q = 50
    angles, _ = quadrature_grid(q)
    truth = regression_surface(angles)
    # identical estimates: only arccos round-off survives
    assert integrated_squared_error(truth, truth, q) <= 1e-12
    # constant integrand c integrates to exactly c * 4 pi^2
    c = 0.3
    rot = np.stack([np.full(len(angles), math.cos(math.sqrt(c))),
                    np.full(len(angles), math.sin(math.sqrt(c))),
                    np.zeros(len(angles))], axis=1)
    base = np.tile([1.0, 0.0, 0.0], (len(angles), 1))
    val = integrated_squared_error(rot, base, q)
    assert val == pytest.approx(c * 4 * math.pi ** 2, rel=1e-10)
    # d^2 = sin^2(psi) integrates to 2 pi^2
    s = np.abs(np.sin(angles[:, 0]))
    est = np.stack([np.cos(s), np.sin(s), np.zeros(len(angles))], axis=1)
    val = integrated_squared_error(est, base, q)
    assert val == pytest.approx(2 * math.pi ** 2, rel=5e-3)


def test_sim_config_validation():
    good = SimConfig(n=50, sigma=0.1, reps=2, seed=1)
    assert good.estimators == ("lc", "ll")
    with pytest.raises(ValueError):
        SimConfig(n=5, sigma=0.1, reps=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=50, sigma=0.0, reps=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=50, sigma=0.1, reps=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=50, sigma=0.1, reps=1, seed=0, quad_per_axis=5)


def test_run_study_deterministic():
    config = SimConfig(n=20, sigma=0.2, reps=2, seed=123,
                       grid=GridSpec(((0.4, 0.8), (0.4, 0.8)), stage2_halfwidth=1),
                       quad_per_axis=10)
    rep1 = run_study(config, threads=1)
    rep2 = run_study(config, threads=1)
    assert rep1.to_json() == rep2.to_json()
    assert set(rep1.mise) == {"lc", "ll"}
    for est in ("lc", "ll"):
        assert rep1.mise[est] is not None and rep1.mise[est] >= 0.0
        assert rep1.excluded[est] == 0
        # MISE is the mean of the replication ISEs
        assert rep1.mise[est] == float(np.mean([r[est]["ise"] for r in rep1.replications]))
    assert rep1.to_json()["config"]["cv_folds"] == 5
    # worker count must not change the report
    rep8 = run_study(config, threads=4)
    assert rep8.to_json() == rep1.to_json()


def test_failed_quadrature_fits_are_recorded_and_excluded(monkeypatch):
    """A replication whose fit at the selected bandwidth fails on any quadrature
    row records that estimator as an error naming the count, and the report
    excludes it from the MISE; the other estimator is unaffected."""
    fit_queries = simulate.fit_queries

    def one_row_fails(data, angles, h, kernel, est):
        fits = fit_queries(data, angles, h, kernel, est)
        if est == "ll":
            fits.cause[3] = "nonconverged"
        return fits

    monkeypatch.setattr(simulate, "fit_queries", one_row_fails)
    config = SimConfig(n=20, sigma=0.2, reps=2, seed=123,
                       grid=GridSpec(((0.4, 0.8), (0.4, 0.8)), stage2_halfwidth=1),
                       quad_per_axis=10)
    report = run_study(config, threads=1)
    for row in report.replications:
        assert row["ll"] == {"error": "1 quadrature fits failed at the selected bandwidth"}
        assert set(row["lc"]) == {"best_h", "cv_score", "ise"}
    assert report.excluded == {"lc": 0, "ll": 2}
    assert report.mise["ll"] is None and report.mise["lc"] >= 0.0
