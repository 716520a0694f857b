"""Workload definitions: seeded input generators, CLI invocations, output checks.

Every workload writes its inputs into a directory (the program only ever sees
those files), then runs one or more `torfrech` subcommands on them. Each
invocation carries a check that reads the outputs back and validates them with
code of this package, not with torfrech's own validators, so a broken
validator cannot pass its own output.

The generators use numpy alone, never torfrech, so that two commits of the
program are measured on byte-identical inputs. Noise magnitudes are drawn at
stratified uniforms: the realised noise level, and with it pred_mse, then
varies little from seed to seed, while predictors and noise directions stay
fully random.

The sizes in FULL are the measured workloads; SMOKE holds tiny sizes that run
each workload end to end in well under a second.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cv_sphere", "cv_quantile", "cv_network", "fit_grid")

# One stable integer per workload, mixed with the run seed so that workloads
# never share a random stream.
_STREAM = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# "replicates" independent input sets per pass: the fit error of one 500-point
# data set varies by about 20% (quartile spread) from seed to seed, the mean
# over four by about 8%; the Laplacian solver's iterations on one trips set
# vary by about 16%, on five sets with the edge-weight cap fixed (MAX_PAIR)
# by about 8%.
FULL = {
    "cv_sphere": {"n": 100, "grid1": "0.1:1.0:10", "estimators": ("ll", "lc"),
                  "replicates": 1},
    "cv_quantile": {"n": 400, "G": 20, "grid1": "0.1:1.0:10", "replicates": 1},
    "cv_network": {"day_step": 15, "hour_step": 3, "mean_trips": 10.0,
                   "grid1": "0.2:1.0:5", "replicates": 5},
    "fit_grid": {"n": 500, "quad": 15, "bandwidth": "0.5,0.5", "replicates": 4},
}

SMOKE = {
    "cv_sphere": {"n": 30, "grid1": "0.5", "estimators": ("ll", "lc"), "replicates": 1},
    "cv_quantile": {"n": 30, "G": 20, "grid1": "0.5", "replicates": 1},
    "cv_network": {"day_step": 60, "hour_step": 3, "mean_trips": 10.0, "grid1": "0.8",
                   "replicates": 1},
    "fit_grid": {"n": 40, "quad": 3, "bandwidth": "0.5,0.5", "replicates": 2},
}

KAPPA = 10.0          # von Mises-Fisher concentration of the sphere noise
N_REGIONS = 13        # regions of the trips workload
HUB = 1               # the region whose share of destinations follows the hour
MAX_PAIR = 4          # trips between one pair of regions in one group, at most
CV_FOLDS = 5


class CheckError(Exception):
    """An output failed its check; the invocation counts as failed."""


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], int(seed)])


# --------------------------------------------------------------------------
# input generators


def regression_surface(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (cos psi, sin phi, sin psi cos phi)/norm at angle rows (psi, phi):
    the surface of torfrech's simulation study, restated here so that neither
    the inputs nor the truth move when the program changes."""
    psi, phi = angles[:, 0], angles[:, 1]
    raw = np.stack([np.cos(psi), np.sin(phi), np.sin(psi) * np.cos(phi)], axis=1)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def quadrature_grid(per_axis: int) -> np.ndarray:
    """Midpoints of a per_axis x per_axis grid on [-pi, pi)^2, one row per point."""
    step = 2.0 * np.pi / per_axis
    centers = -np.pi + (np.arange(per_axis) + 0.5) * step
    psi, phi = np.meshgrid(centers, centers, indexing="ij")
    return np.stack([psi.ravel(), phi.ravel()], axis=1)


def _stratified_uniform(rng, n: int) -> np.ndarray:
    """One uniform draw per 1/n stratum, in random order: the empirical
    distribution of the draws, and so the realised noise level, barely
    changes with the seed."""
    return (rng.permutation(n) + rng.random(n)) / n


def sphere_sample(rng, n: int):
    """Uniform torus predictors; von Mises-Fisher(kappa) responses around the surface.

    The cosine to the mean is the exact inverse CDF 1 + log(u + (1-u) e^{-2 kappa})/kappa
    at stratified u; the tangent direction is uniform.
    """
    angles = rng.uniform(-np.pi, np.pi, size=(n, 2))
    mus = regression_surface(angles)
    u = _stratified_uniform(rng, n)
    w = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * KAPPA)) / KAPPA
    turn = rng.uniform(-np.pi, np.pi, n)
    rows = np.arange(n)
    pivot = np.argmin(np.abs(mus), axis=1)
    b1 = -mus * mus[rows, pivot][:, None]
    b1[rows, pivot] += 1.0
    b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = np.cross(mus, b1)
    tangent = np.cos(turn)[:, None] * b1 + np.sin(turn)[:, None] * b2
    out = w[:, None] * mus + np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * tangent
    return angles, out / np.linalg.norm(out, axis=1, keepdims=True)


def _stratified_logistic(rng, n: int, scale: float) -> np.ndarray:
    """n logistic(0, scale) draws at stratified uniforms."""
    u = _stratified_uniform(rng, n)
    return scale * np.log(u / (1.0 - u))


def quantile_sample(rng, n: int, grid: int):
    """Logistic quantile functions whose location and scale vary with both angles.

    Location 0.5 + 0.2 sin(a1) cos(a2) and scale 0.07 + 0.015 (1 + sin a2),
    perturbed by stratified logistic noise (additive on the location, standard
    deviation 0.05; multiplicative on the scale, log standard deviation 0.15),
    evaluated at the levels (i + 0.5)/G and clipped to [0, 1], which keeps
    every vector nondecreasing.
    """
    angles = rng.uniform(-np.pi, np.pi, size=(n, 2))
    a1, a2 = angles[:, 0], angles[:, 1]
    to_logistic = math.sqrt(3.0) / math.pi  # logistic scale per unit standard deviation
    loc = 0.5 + 0.2 * np.sin(a1) * np.cos(a2) + \
        _stratified_logistic(rng, n, 0.05 * to_logistic)
    scale = (0.07 + 0.015 * (1.0 + np.sin(a2))) * \
        np.exp(_stratified_logistic(rng, n, 0.15 * to_logistic))
    levels = (np.arange(grid) + 0.5) / grid
    logit = np.log(levels / (1.0 - levels))
    quantiles = np.clip(loc[:, None] + scale[:, None] * logit[None, :], 0.0, 1.0)
    return angles, quantiles


def trips_sample(rng, day_step: int, hour_step: int, mean_trips: float):
    """Trip rows (hour, day, 365, origin, dest): one group every hour_step hours
    on every day_step-th day. Counts are Poisson with an hour-dependent rate
    peaking at 17h; the hub's share of destinations peaks at 8h.

    A trip is redrawn while its pair of regions (either direction) already has
    MAX_PAIR trips in the group, and the first group opens with MAX_PAIR trips
    between region 2 and the hub. The edge-weight cap that ingest-network
    infers, the largest count, is then MAX_PAIR for every seed; left to chance
    it ranged from 3 to 6, and with it how often the Laplacian solver's box
    binds and how long it iterates.
    """
    rows = []
    first = True
    for day in range(1, 366, day_step):
        for hour in range(0, 24, hour_step):
            rate = mean_trips * (1.0 + 0.9 * math.cos(2.0 * math.pi * (hour - 17) / 24.0))
            hub_share = 0.15 + 0.25 * (1.0 + math.cos(2.0 * math.pi * (hour - 8) / 24.0))
            pairs = {}
            if first:
                rows += [(hour, day, 365, 2, HUB)] * MAX_PAIR
                pairs[(HUB, 2)] = MAX_PAIR
                first = False
            for _ in range(int(rng.poisson(rate))):
                while True:
                    if rng.random() < hub_share:
                        dest = HUB
                    else:
                        dest = int(rng.integers(2, N_REGIONS + 1))
                    origin = int(rng.integers(1, N_REGIONS))
                    if origin >= dest:
                        origin += 1  # uniform over the regions other than dest
                    pair = (min(origin, dest), max(origin, dest))
                    if pairs.get(pair, 0) < MAX_PAIR:
                        break
                pairs[pair] = pairs.get(pair, 0) + 1
                rows.append((hour, day, 365, origin, dest))
    return rows


def _write_dataset(path: Path, angles, payloads, space: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{i + 1}" for i in range(angles.shape[1])] + ["response"])
        for a, p in zip(angles, payloads):
            writer.writerow([repr(float(v)) for v in a] +
                            [json.dumps([float(v) for v in np.ravel(p)],
                                        separators=(",", ":"))])
    with open(str(path) + ".space.json", "w") as fh:
        json.dump(space, fh)


def _write_trips(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "day", "doy_len", "origin", "dest"])
        writer.writerows(rows)


def write_inputs(workload: str, seed: int, sizes: dict, directory: Path) -> None:
    """Generate the workload's input files, replicate r into data{r}.csv or
    trips{r}.csv, from the seed alone."""
    rng = rng_for(workload, seed)
    for r in range(sizes["replicates"]):
        if workload in ("cv_sphere", "fit_grid"):
            angles, responses = sphere_sample(rng, sizes["n"])
            _write_dataset(directory / f"data{r}.csv", angles, responses,
                           {"kind": "sphere", "p": 2})
        elif workload == "cv_quantile":
            angles, quantiles = quantile_sample(rng, sizes["n"], sizes["G"])
            _write_dataset(directory / f"data{r}.csv", angles, quantiles,
                           {"kind": "wasserstein", "grid": sizes["G"], "a": 0.0, "b": 1.0})
        elif workload == "cv_network":
            _write_trips(directory / f"trips{r}.csv",
                         trips_sample(rng, sizes["day_step"], sizes["hour_step"],
                                      sizes["mean_trips"]))
        else:
            raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# invocations and checks


@dataclass
class Invocation:
    """One CLI call. check() raises CheckError or returns the figures (best_h,
    score) used for pred_mse and the reference check; outputs name the files
    the call writes."""

    label: str
    argv: list
    check: object
    outputs: tuple


def plan(workload: str, seed: int, sizes: dict, directory: Path) -> list:
    """The workload's CLI invocations in order, with their output checks."""
    d = directory
    out = []
    for r in range(sizes["replicates"]):
        if workload == "cv_sphere":
            out += [_cv_invocation(d, f"data{r}.csv", est, sizes["grid1"], seed,
                                   f"cv_{est}{r}.json") for est in sizes["estimators"]]
        elif workload == "cv_quantile":
            out.append(_cv_invocation(d, f"data{r}.csv", "ll", sizes["grid1"], seed,
                                      f"cv_ll{r}.json"))
        elif workload == "cv_network":
            out.append(_ingest_invocation(d, f"trips{r}.csv", f"network{r}.csv"))
            out.append(_cv_invocation(d, f"network{r}.csv", "ll", sizes["grid1"], seed,
                                      f"cv_ll{r}.json"))
        elif workload == "fit_grid":
            out.append(_fit_invocation(d, f"data{r}.csv", sizes, f"pred{r}.csv"))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


def _ingest_invocation(d: Path, trips: str, out: str):
    argv = ["ingest-network", "--trips", str(d / trips), "--k", str(N_REGIONS),
            "--out", str(d / out)]
    return Invocation(f"ingest-network -> {out}", argv, lambda: check_ingest(d / trips, d / out),
                      (out, out + ".space.json"))


def _fit_invocation(d: Path, data: str, sizes: dict, out: str):
    queries = quadrature_grid(sizes["quad"])
    argv = ["fit", "--data", str(d / data), "--estimator", "ll",
            "--bandwidth", sizes["bandwidth"], "--out", str(d / out)]
    for q in queries:
        argv += ["--query", f"{float(q[0])!r},{float(q[1])!r}"]
    return Invocation(f"fit ll -> {out}", argv, lambda: check_fit(d / out, queries),
                      (out, out + ".space.json", out + ".diag.json"))


def _cv_invocation(d: Path, data: str, est: str, grid1: str, seed: int, out: str):
    argv = ["cv", "--data", str(d / data), "--estimator", est, "--grid1", grid1,
            "--k", str(CV_FOLDS), "--seed", str(seed), "--out", str(d / out)]
    return Invocation(f"cv {est} -> {out}", argv, lambda: check_cv(d / out, d / data), (out,))


def _count_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def _rank_key(entry):
    h, score = entry
    return (score, float(np.linalg.norm(h)), tuple(h))


def check_cv(path: Path, data: Path) -> dict:
    """The CVResult parses, best_h is a scored candidate, and best_score is the
    minimum of the run's own score table under the rank rule (score, |h|, h)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path.name}: unreadable CV result ({exc})") from None
    table = [(tuple(e["h"]), e["score"]) for e in obj.get("stage1", []) + obj.get("stage2", [])]
    if not table:
        raise CheckError(f"{path.name}: empty score table")
    best_h = tuple(obj["best_h"])
    scored = dict(table)
    if best_h not in scored:
        raise CheckError(f"{path.name}: best_h {best_h} is not a scored candidate")
    winner = min(table, key=_rank_key)
    if winner[0] != best_h or winner[1] != obj["best_score"]:
        raise CheckError(f"{path.name}: best ({best_h}, {obj['best_score']}) is not the "
                         f"rank-rule minimum {winner}")
    if not math.isfinite(obj["best_score"]) or obj["best_score"] < 0.0:
        raise CheckError(f"{path.name}: best_score {obj['best_score']} is not a finite "
                         f"nonnegative mean squared distance")
    n = _count_rows(data)
    folds = obj.get("fold_assignment", [])
    if len(folds) != n or sorted(set(folds)) != list(range(CV_FOLDS)):
        raise CheckError(f"{path.name}: fold assignment does not cover {n} rows "
                         f"with {CV_FOLDS} folds")
    return {"best_h": list(best_h), "score": float(obj["best_score"])}


def read_dataset(path: Path):
    """(angles, payload rows) of a dataset CSV, parsed without torfrech."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    dim = len(header) - 1
    if header != [f"theta_{i + 1}" for i in range(dim)] + ["response"]:
        raise CheckError(f"{path.name}: bad header {header}")
    angles = np.array([[float(v) for v in r[:dim]] for r in rows]).reshape(len(rows), dim)
    payloads = [json.loads(r[dim]) for r in rows]
    return angles, payloads


def _sphere_rows(path: Path, payloads) -> np.ndarray:
    arr = np.asarray(payloads, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or not np.all(np.isfinite(arr)):
        raise CheckError(f"{path.name}: predictions are not finite 3-vectors")
    if np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) > 1e-9:
        raise CheckError(f"{path.name}: a prediction is off the unit sphere")
    return arr


def check_fit(path: Path, queries: np.ndarray) -> dict:
    """Every prediction is a unit 3-vector at its query, the diagnostics hold
    one entry per query, and pred_mse is the mean squared geodesic distance
    to the true regression surface at the queries."""
    try:
        angles, payloads = read_dataset(path)
        with open(str(path) + ".diag.json") as fh:
            diag = json.load(fh)
    except (OSError, ValueError, StopIteration) as exc:
        raise CheckError(f"{path.name}: unreadable predictions ({exc})") from None
    q = queries.shape[0]
    if angles.shape != (q, 2):
        raise CheckError(f"{path.name}: {angles.shape[0]} predictions for {q} queries")
    wrapped = np.mod(queries + np.pi, 2.0 * np.pi) - np.pi
    if np.max(np.abs(angles - wrapped)) > 1e-12:
        raise CheckError(f"{path.name}: prediction angles do not match the queries")
    pred = _sphere_rows(path, payloads)
    if not isinstance(diag, list) or len(diag) != q:
        raise CheckError(f"{path.name}.diag.json: expected one entry per query")
    truth = regression_surface(queries)
    d2 = np.arccos(np.clip(np.einsum("qm,qm->q", pred, truth), -1.0, 1.0)) ** 2
    return {"score": float(d2.mean())}


def expected_laplacians(trips_path: Path) -> dict:
    """Independent aggregation of the trips file: group key -> Laplacian."""
    groups = {}
    with open(trips_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for hour, day, _, origin, dest in reader:
            counts = groups.setdefault((int(day), int(hour)),
                                       np.zeros((N_REGIONS, N_REGIONS)))
            if origin != dest:
                counts[int(origin) - 1, int(dest) - 1] += 1.0
    out = {}
    for key, counts in groups.items():
        w = counts + counts.T
        out[key] = np.diag(w.sum(axis=1)) - w
    return out


def check_ingest(trips_path: Path, path: Path) -> dict:
    """Every ingested Laplacian is valid (symmetric, zero row sums,
    off-diagonals in [-c_w, 0], c_w the largest observed count) and equals the
    independent aggregation of the trips at its (hour, day) point."""
    try:
        angles, payloads = read_dataset(path)
        with open(str(path) + ".space.json") as fh:
            space = json.load(fh)
    except (OSError, ValueError, StopIteration) as exc:
        raise CheckError(f"{path.name}: unreadable network dataset ({exc})") from None
    expected = expected_laplacians(trips_path)
    cap = max(float(-lap.min()) for lap in expected.values())
    if (space.get("kind"), space.get("k"), space.get("c_w")) != \
            ("graph_laplacian", N_REGIONS, cap):
        raise CheckError(f"{path.name}: unexpected space descriptor {space}")
    if len(payloads) != len(expected):
        raise CheckError(f"{path.name}: {len(payloads)} Laplacians for "
                         f"{len(expected)} trip groups")
    off = ~np.eye(N_REGIONS, dtype=bool)
    for row, (a, p) in enumerate(zip(angles, payloads), start=1):
        lap = np.asarray(p, dtype=float).reshape(N_REGIONS, N_REGIONS)
        if not (np.array_equal(lap, lap.T) and np.all(lap.sum(axis=1) == 0.0)
                and np.all(lap[off] <= 0.0) and np.all(lap[off] >= -cap)):
            raise CheckError(f"{path.name} row {row}: invalid Laplacian")
        hour = int(round(a[0] / (2.0 * math.pi) * 24.0 - 0.5)) % 24
        day = int(round(a[1] / (2.0 * math.pi) * 365 + 0.5)) % 365 or 365
        if not np.array_equal(lap, expected.get((day, hour))):
            raise CheckError(f"{path.name} row {row}: Laplacian differs from the trips "
                             f"of day {day} hour {hour}")
    return {}
