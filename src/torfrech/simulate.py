"""Monte Carlo study: sphere-valued regression over the 2-torus.

Each replication draws predictors uniformly on the torus, responses from a
von Mises-Fisher distribution centered at a fixed smooth regression surface
(concentration 1/sigma), selects bandwidths by the two-stage cross-validated
search, fits on the full sample, and accumulates the integrated squared
geodesic error over a tensor midpoint quadrature grid. The integral is over
the angle square [-pi, pi)^2 and is deliberately not normalized by the torus
area. Everything is a pure function of the master seed: replications get
sub-seeds through a fixed SeedSequence spawning rule and are aggregated in
replication order, so worker counts never change the output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import GridSpec, two_stage_search
from .errors import NumericalError
from .frechet import Dataset, fit_queries, normalize_estimator
from .kernels import KernelFamily
from .metric import SphereSpace
from .parallel import process_map

_SPHERE = SphereSpace(2)
CV_FOLDS = 5


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario (a single noise level and sample size)."""

    n: int
    sigma: float
    reps: int
    seed: int
    grid: GridSpec = field(
        default_factory=lambda: GridSpec((tuple(np.linspace(0.1, 1.0, 10)),) * 2))
    quad_per_axis: int = 50
    estimators: tuple = ("lc", "ll")
    kernel: KernelFamily = KernelFamily.VON_MISES

    def __post_init__(self):
        if self.n < 10:
            raise ValueError("sample size must be at least 10")
        if not self.sigma > 0.0:
            raise ValueError("noise level sigma must be positive")
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if self.quad_per_axis < 10:
            raise ValueError("need at least 10 quadrature points per axis")
        if self.grid.dim != 2:
            raise ValueError("the study runs on the 2-torus; grid must have 2 axes")
        object.__setattr__(self, "estimators",
                           tuple(normalize_estimator(e) for e in self.estimators))
        if len(self.estimators) == 0 or len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators must be a nonempty set drawn from {lc, ll}")

    def to_json(self) -> dict:
        return {"n": self.n, "sigma": self.sigma, "reps": self.reps, "seed": self.seed,
                "grid": self.grid.to_json(), "quad_per_axis": self.quad_per_axis,
                "estimators": list(self.estimators), "kernel": self.kernel.value,
                "cv_folds": CV_FOLDS}


@dataclass
class SimReport:
    """Per-estimator MISE with per-replication details and exclusions."""

    config: SimConfig
    mise: dict
    replications: list
    excluded: dict
    wall_clock_s: float

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "scenario": {"sigma": self.config.sigma, "n": self.config.n},
            "mise": self.mise,
            "excluded": self.excluded,
            "replications": self.replications,
        }


def regression_surface(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (cos psi, sin phi, sin psi cos phi)/norm for angle rows (psi, phi);
    norm^2 = 1 + cos^2 psi sin^2 phi >= 1, so the division is always safe."""
    ang = np.atleast_2d(np.asarray(angles, dtype=float))
    if ang.shape[1] != 2:
        raise ValueError("the regression surface is defined on the 2-torus")
    psi, phi = ang[:, 0], ang[:, 1]
    raw = np.stack([np.cos(psi), np.sin(phi), np.sin(psi) * np.cos(phi)], axis=1)
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def sample_uniform_torus(d: int, count: int, rng) -> np.ndarray:
    """i.i.d. angle rows uniform on [-pi, pi)^d, shape (count, d)."""
    if count < 1:
        raise ValueError("need at least one draw")
    return rng.uniform(-np.pi, np.pi, size=(count, int(d)))


def sample_vmf_many(mus: np.ndarray, kappa: float, rng) -> np.ndarray:
    """One von Mises-Fisher draw on S^2 for each mean direction row.

    The cosine against the mean is drawn by the exact inverse CDF
    w = 1 + log(u + (1-u) exp(-2 kappa))/kappa and the tangent direction is
    uniform on the circle orthogonal to the mean.
    """
    if not kappa > 0.0:
        raise ValueError("concentration kappa must be positive")
    mus = np.atleast_2d(np.asarray(mus, dtype=float))
    m = mus.shape[0]
    if mus.shape[1] != 3 or np.max(np.abs(np.linalg.norm(mus, axis=1) - 1.0)) > 1e-8:
        raise ValueError("mean directions must be unit vectors in R^3")
    u = rng.random(m)
    with np.errstate(divide="ignore"):
        w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    w = np.clip(w, -1.0, 1.0)  # log underflow at u=0 with large kappa
    ang = rng.uniform(-np.pi, np.pi, m)
    pivot = np.argmin(np.abs(mus), axis=1)
    e = np.zeros_like(mus)
    e[np.arange(m), pivot] = 1.0
    b1 = e - mus * mus[np.arange(m), pivot][:, None]
    b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = np.cross(mus, b1)
    tangent = np.cos(ang)[:, None] * b1 + np.sin(ang)[:, None] * b2
    out = w[:, None] * mus + np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * tangent
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def quadrature_grid(quad_per_axis: int):
    """Midpoint tensor grid on [-pi, pi)^2: (angles (Q^2, 2), cell area)."""
    q = int(quad_per_axis)
    step = 2.0 * np.pi / q
    centers = -np.pi + (np.arange(q) + 0.5) * step
    psi, phi = np.meshgrid(centers, centers, indexing="ij")
    return np.stack([psi.ravel(), phi.ravel()], axis=1), step * step


def integrated_squared_error(estimates: np.ndarray, truths: np.ndarray,
                             quad_per_axis: int) -> float:
    """Midpoint-rule integral of squared geodesic distance over the angle square."""
    _, area = quadrature_grid(quad_per_axis)
    d2 = _SPHERE.pairwise_dist2(estimates, truths)
    return float(d2.sum() * area)


def _run_replication(args) -> dict:
    config, rep, seed_seq = args
    data_seq, cv_seq = seed_seq.spawn(2)
    rng = np.random.default_rng(data_seq)
    angles = sample_uniform_torus(2, config.n, rng)
    mus = regression_surface(angles)
    responses = sample_vmf_many(mus, 1.0 / config.sigma, rng)
    data = Dataset(_SPHERE, angles, responses)
    cv_seed = int(cv_seq.generate_state(1, np.uint32)[0])
    grid_angles, _ = quadrature_grid(config.quad_per_axis)
    truths = regression_surface(grid_angles)

    out = {"rep": rep}
    for est in config.estimators:
        try:
            cv = two_stage_search(data, config.kernel, config.grid, k=CV_FOLDS,
                                  seed=cv_seed, estimator=est, threads=1)
            fits = fit_queries(data, grid_angles, cv.best_h, config.kernel, est)
            if not np.all(fits.ok):
                out[est] = {"error": f"{int((~fits.ok).sum())} quadrature fits failed at "
                                     f"the selected bandwidth"}
                continue
            out[est] = {"best_h": [float(v) for v in cv.best_h.h],
                        "cv_score": float(cv.best_score),
                        "ise": integrated_squared_error(fits.values, truths,
                                                        config.quad_per_axis)}
        except (NumericalError, ValueError) as exc:
            out[est] = {"error": str(exc)}
    return out


def run_study(config: SimConfig, threads=None) -> SimReport:
    """Run every replication and aggregate MISE per estimator."""
    start = time.perf_counter()
    children = np.random.SeedSequence(config.seed).spawn(config.reps)
    jobs = [(config, rep, children[rep]) for rep in range(config.reps)]
    rows = process_map(_run_replication, jobs, threads)
    mise_out = {}
    excluded = {}
    for est in config.estimators:
        ises = [row[est]["ise"] for row in rows if "ise" in row[est]]
        excluded[est] = config.reps - len(ises)
        mise_out[est] = float(np.mean(ises)) if ises else None
    return SimReport(config=config, mise=mise_out, replications=rows,
                     excluded=excluded, wall_clock_s=time.perf_counter() - start)
