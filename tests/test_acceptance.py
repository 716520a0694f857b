"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The first criterion runs
the full desk-scale simulation study through the CLI and takes about 14 s
on 2 vCPUs; everything else is fast.
"""

import json
import math
import time

import numpy as np
from click.testing import CliRunner

from torfrech.cli import main
from torfrech.errors import DegenerateVarianceError, SingularDesignError
from torfrech.frechet import (
    SIGMA,
    SINGULAR,
    Dataset,
    QueryBatch,
    fit_queries,
    local_linear_weights,
    local_moments,
)
from torfrech.io import save_dataset, trips_to_dataset
from torfrech.kernels import BandwidthVector, KernelFamily, kernel_moment
from torfrech.metric import (
    GraphLaplacianSpace,
    ScalarSpace,
    SphereSpace,
    frechet_mean_oracle,
    weighted_frechet_mean,
)
from torfrech.torus import TorusPoint, canonicalize, chart, inverse_chart

SCALAR = ScalarSpace(-50.0, 50.0)
VM = KernelFamily.VON_MISES
ALL_FAMILIES = [KernelFamily.VON_MISES, KernelFamily.EXPONENTIAL, KernelFamily.UNIFORM]


def _ok(line):
    print(f"\n{line}", flush=True)


def test_criterion_1_table1_trend_desk_scale(tmp_path):
    runner = CliRunner()
    start = time.perf_counter()
    reports = {}
    for n in (50, 200):
        out = tmp_path / f"sim_{n}.json"
        result = runner.invoke(main, [
            "simulate", "--n", str(n), "--sigma", "0.1", "--reps", "20",
            "--seed", "20260811", "--quad", "30", "--grid1", "0.1:1.0:10",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports[n] = json.loads(out.read_text())
    elapsed = time.perf_counter() - start
    m50, m200 = reports[50]["mise"], reports[200]["mise"]
    # (a) local linear beats local constant at both sample sizes
    assert m50["ll"] < m50["lc"]
    assert m200["ll"] < m200["lc"]
    # (b) MISE strictly decreasing in n for each estimator
    assert m200["lc"] < m50["lc"]
    assert m200["ll"] < m50["ll"]
    # (c) desk-scale bands around the reference values 0.635 and 1.034
    assert 0.3 <= m200["ll"] <= 1.3
    assert 0.5 <= m200["lc"] <= 2.0
    assert elapsed <= 15 * 60
    _ok(f"criterion 1 PASS: MISE n=50 lc={m50['lc']:.3f} ll={m50['ll']:.3f}; "
        f"n=200 lc={m200['lc']:.3f} ll={m200['ll']:.3f}; {elapsed:.0f}s")


def test_criterion_2_weight_identities():
    rng = np.random.default_rng(2026)
    checked = 0
    worst_mean = 0.0
    worst_theta = 0.0
    for trial in range(500):
        d = 1 + trial % 2
        n = int(rng.integers(10, 80))
        data = Dataset(SCALAR, rng.uniform(-math.pi, math.pi, size=(n, d)),
                       rng.normal(size=n))
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
        h = BandwidthVector(rng.uniform(0.15, 1.2, size=d))
        moments = local_moments(data, x, h, VM)
        try:
            w = local_linear_weights(moments)
        except (SingularDesignError, DegenerateVarianceError):
            continue
        checked += 1
        err_mean = abs(w.mean() - 1.0)
        err_theta = float(np.linalg.norm((w[:, None] * moments.theta).mean(axis=0)))
        worst_mean = max(worst_mean, err_mean)
        worst_theta = max(worst_theta, err_theta)
        assert err_mean <= 1e-10
        assert err_theta <= 1e-10
    assert checked >= 400  # the guard may reject a few degenerate draws
    _ok(f"criterion 2 PASS: {checked}/500 nonsingular fits; worst "
        f"|mean(W)-1|={worst_mean:.2e}, worst |mean(W theta)|={worst_theta:.2e}")


def test_criterion_3_scalar_equivalence():
    rng = np.random.default_rng(3)
    done = 0
    for _ in range(400):
        if done >= 200:
            break
        d = int(rng.integers(1, 3))
        n = int(rng.integers(12, 50))
        data = Dataset(SCALAR, rng.uniform(-math.pi, math.pi, size=(n, d)),
                       rng.normal(size=n))
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
        h = BandwidthVector(rng.uniform(0.3, 1.0, size=d))
        moments = local_moments(data, x, h, VM)
        ll = fit_queries(data, x.angles[None], h, VM, "ll")
        if ll.cause[0] in (SINGULAR, SIGMA):
            continue
        assert ll.ok[0]
        design = np.column_stack([np.ones(n), moments.theta])
        normal = design.T @ (moments.kernel_weights[:, None] * design)
        rhs = design.T @ (moments.kernel_weights * data.responses)
        alpha = float(np.linalg.solve(normal, rhs)[0])
        assert abs(ll.values[0] - alpha) <= 1e-8
        lc = fit_queries(data, x.angles[None], h, VM, "lc")
        assert lc.ok[0]
        nw = float(np.dot(moments.kernel_weights, data.responses) /
                   moments.kernel_weights.sum())
        assert abs(lc.values[0] - nw) <= 1e-12
        done += 1
    assert done >= 200
    _ok(f"criterion 3 PASS: {done} scalar instances match the normal-equations "
        f"solution (1e-8) and the NW ratio (1e-12)")


def test_criterion_4_chart_round_trip():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-math.pi, math.pi, size=(100_000, 3))
    zs = rng.uniform(-math.pi, math.pi, size=(100_000, 3))
    worst = 0.0
    for i in range(0, 100_000, 2000):  # exercise the public single-point API
        x, z = TorusPoint(xs[i]), TorusPoint(zs[i])
        back = chart(x, inverse_chart(x, z))
        worst = max(worst, float(np.max(np.abs(canonicalize(back.angles - z.angles)))))
    # vectorized sweep over all pairs with the same arithmetic
    delta = zs - xs
    theta = np.arctan2(np.sin(delta), np.cos(delta))
    back = np.asarray(canonicalize(xs + theta))
    gap = np.abs(np.asarray(canonicalize(back - zs)))
    worst = max(worst, float(gap.max()))
    assert worst <= 1e-12
    _ok(f"criterion 4 PASS: 1e5 round trips on T^3, worst gap {worst:.2e}")


def test_criterion_5_odd_moments_vanish():
    worst = 0.0
    for fam in ALL_FAMILIES:
        for h_val in (0.1, 0.3, 1.0):
            h = BandwidthVector([h_val, h_val])
            for j in ([1, 0], [0, 1], [1, 2], [3, 0]):
                for power in (1, 2):
                    val = abs(kernel_moment(fam, h, j, power=power, quad_points=256))
                    worst = max(worst, val)
                    assert val <= 1e-8
    _ok(f"criterion 5 PASS: odd kernel moments vanish for all 3 families "
        f"(worst {worst:.2e})")


def test_criterion_6_solver_vs_oracle():
    rng = np.random.default_rng(6)
    deg = math.pi / 180.0
    cases = [(SCALAR, 1e-3), (SphereSpace(2), deg), (GraphLaplacianSpace(2, 5.0), 1e-3)]
    for space, res in cases:
        for trial in range(50):
            if isinstance(space, ScalarSpace):
                pts = [float(rng.uniform(-5, 5)) for _ in range(5)]
                w = rng.uniform(-0.3, 1.0, size=5)
                if w.sum() <= 0.1:
                    w = np.abs(w)
                bound = 2.0 * np.abs(w).sum() * space.diameter() * res
            elif isinstance(space, SphereSpace):
                pts = []
                for _ in range(5):
                    v = rng.standard_normal(3)
                    pts.append(v / np.linalg.norm(v))
                w = rng.uniform(0.1, 1.0, size=5)
                bound = 2.0 * math.pi * np.abs(w).sum() * 2.0 * res
            else:
                pts = [space.edge_weights_to_laplacian(rng.uniform(0, 5, 1))
                       for _ in range(5)]
                w = rng.uniform(-0.3, 1.0, size=5)
                if w.sum() <= 0.1:
                    w = np.abs(w)
                bound = 8.0 * np.abs(w).sum() * space.c_w * res + \
                    4.0 * np.abs(w).sum() * res ** 2
            solver = weighted_frechet_mean(space, pts, w)
            oracle = frechet_mean_oracle(space, pts, w, res)
            stacked = space.stack(pts)
            gap = space.objective(stacked, np.asarray(w, float), oracle) - \
                solver.objective
            assert gap >= -1e-6 * max(1.0, solver.objective)
            assert gap <= bound
    _ok("criterion 6 PASS: solver objective within the oracle resolution bound "
        "on 50 instances each for scalar, sphere, graph-Laplacian")


def test_criterion_7_shift_equivariance():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(10, 40))
        data = Dataset(SCALAR, rng.uniform(-math.pi, math.pi, size=(n, d)),
                       rng.normal(size=n))
        x = TorusPoint(rng.uniform(-math.pi, math.pi, size=d))
        h = BandwidthVector(rng.uniform(0.3, 1.0, size=d))
        delta = rng.uniform(-math.pi, math.pi, size=d)
        shifted = Dataset(SCALAR, data.angles + delta, data.responses)
        xs = TorusPoint(x.angles + delta)
        for estimator in ("lc", "ll"):
            batches = QueryBatch(data, x.angles), QueryBatch(shifted, xs.angles)
            base, moved = (batch.estimates(h, VM, estimator) for batch in batches)
            if {base.cause[0], moved.cause[0]} & {SINGULAR, SIGMA}:
                continue
            assert base.ok[0] and moved.ok[0]
            w_base, w_moved = (batch.weight_rows(h, VM, estimator)[0][0] for batch in batches)
            assert np.max(np.abs(w_base - w_moved)) <= 1e-10
            assert abs(base.values[0] - moved.values[0]) <= 1e-9
            checked += 1
    assert checked >= 150
    _ok(f"criterion 7 PASS: {checked} shifted fits match weights (1e-10) "
        f"and estimates")


def test_criterion_8_laplacian_validity():
    rng = np.random.default_rng(8)
    trips = [(int(rng.integers(0, 24)), int(rng.integers(1, 366)), 365,
              int(rng.integers(1, 14)), int(rng.integers(1, 14)))
             for _ in range(2000)]
    data = trips_to_dataset(trips, 13)
    cap = data.space.c_w
    space13 = GraphLaplacianSpace(13, cap)
    for lap in data.responses:
        space13.validate(lap)
        assert np.array_equal(lap, lap.T)  # exact symmetry
        off = lap[~np.eye(13, dtype=bool)]
        assert np.all(off <= 0.0) and np.all(off >= -cap)
        assert np.max(np.abs(lap.sum(axis=1))) <= 1e-9
    space3 = GraphLaplacianSpace(3, 4.0)
    for trial in range(30):
        pts = [space3.edge_weights_to_laplacian(rng.uniform(0, 4, 3))
               for _ in range(6)]
        w = rng.uniform(-0.3, 1.0, size=6)
        if w.sum() <= 0.1:
            w = np.abs(w)
        mean = weighted_frechet_mean(space3, pts, w).value
        space3.validate(mean)
        assert np.array_equal(mean, mean.T)
        off = mean[~np.eye(3, dtype=bool)]
        assert np.all(off <= 0.0) and np.all(off >= -4.0)
        assert np.max(np.abs(mean.sum(axis=1))) <= 1e-9
    _ok(f"criterion 8 PASS: {data.n} ingested Laplacians and 30 Fréchet "
        f"means satisfy all invariants")


def test_criterion_9_byte_determinism_across_thread_counts(tmp_path):
    runner = CliRunner()
    rng = np.random.default_rng(9)
    angles = rng.uniform(-math.pi, math.pi, size=(24, 2))
    data = Dataset(SCALAR, angles,
                   SCALAR.stack(list(np.sin(angles[:, 0]) + 0.1 * rng.normal(size=24))))
    data_path = tmp_path / "data.csv"
    save_dataset(data_path, data)

    sim_args = ["simulate", "--n", "20", "--sigma", "0.2", "--reps", "3",
                "--seed", "77", "--quad", "10", "--grid1", "0.4,0.8"]
    cv_args = ["cv", "--data", str(data_path), "--estimator", "ll",
               "--grid1", "0.3:0.9:3", "--k", "4", "--seed", "13"]
    blobs = {"simulate": set(), "cv": set()}
    for threads in ("1", "8"):
        for run in range(2):
            sim_out = tmp_path / f"sim_{threads}_{run}.json"
            result = runner.invoke(main, sim_args + ["--out", str(sim_out)],
                                   env={"TORFRECH_THREADS": threads})
            assert result.exit_code == 0, result.output
            blobs["simulate"].add(sim_out.read_bytes())
            cv_out = tmp_path / f"cv_{threads}_{run}.json"
            result = runner.invoke(main, cv_args + ["--out", str(cv_out)],
                                   env={"TORFRECH_THREADS": threads})
            assert result.exit_code == 0, result.output
            blobs["cv"].add(cv_out.read_bytes())
    assert len(blobs["simulate"]) == 1
    assert len(blobs["cv"]) == 1
    _ok("criterion 9 PASS: simulate and cv outputs byte-identical across "
        "2 runs x thread counts {1, 8}")
