"""Command-line interface.

Subcommands: fit (predict at queries), cv (two-stage bandwidth search),
simulate (the Monte Carlo study), ingest-network (trips -> Laplacian
dataset), eval (squared-distance summary between two datasets).

Exit codes: 0 ok, 2 usage/validation error, 3 numerical failure. Outputs are
deterministic given flags and seed at any TORFRECH_THREADS (0 = auto); BLAS
threads can move their last bits at large n, unless OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import tempfile

import click
import numpy as np
from click.core import ParameterSource

from .bandwidth import GridSpec, kfold_split, two_stage_search
from .errors import DatasetFormatError, NumericalError
from .frechet import OK, Dataset, fit_queries
from .io import (file_errors, load_dataset, load_space, read_json, read_trips,
                 save_dataset, trips_to_dataset, write_json)
from .kernels import BandwidthVector, KernelFamily
from .metric import finite_number
from .simulate import SimConfig, run_study
from .torus import canonicalize


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:  # the package's validation errors are ValueErrors
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _parse_floats(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r} as comma-separated numbers") from None


def _parse_grid1(spec: str, dim: int, stage2_fraction: float,
                 stage2_halfwidth: int) -> GridSpec:
    """Per-axis candidate grids: segments joined by 'x', each either
    'start:stop:count' or a comma list; one segment is replicated to every axis."""
    segments = spec.split("x")
    axes = []
    for seg in segments:
        seg = seg.strip()
        if ":" in seg:
            parts = seg.split(":")
            if len(parts) != 3:
                raise ValueError(f"grid segment {seg!r} must be start:stop:count")
            try:
                start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"could not parse grid segment {seg!r}") from None
            axes.append(tuple(np.linspace(start, stop, count)))
        else:
            axes.append(tuple(_parse_floats(seg, "grid segment")))
    if len(axes) == 1 and dim > 1:
        axes = axes * dim
    if len(axes) != dim:
        raise ValueError(f"grid has {len(axes)} axes but the data has {dim}")
    return GridSpec(tuple(axes), stage2_fraction, stage2_halfwidth)


def _merge_config(ctx, config_path, names):
    """Fill parameters the user left at their defaults from the JSON object in the
    config file. Each key must be one of `names`, and each value a string or a
    finite number, converted by its flag's type."""
    config = {} if config_path is None else read_json(config_path)
    params, out = {p.name: p for p in ctx.command.params}, {}
    with file_errors(config_path):
        if not isinstance(config, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = sorted(set(config) - set(names))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                             f"{ctx.command.name} takes {', '.join(names)}")
        for name in names:
            if name in config and \
                    ctx.get_parameter_source(name) != ParameterSource.COMMANDLINE:
                value = config[name]
                if not (isinstance(value, str) or finite_number(value)):
                    raise ValueError(f"config key {name!r} must be a string or a finite "
                                     f"number, got {json.dumps(value)}")
                try:
                    out[name] = params[name].type.convert(value, params[name], ctx)
                except click.BadParameter as exc:
                    raise ValueError(f"config key {name!r}: {exc.message}") from None
            else:
                out[name] = ctx.params[name]
    return out


def _config_checked(ctx, config_path, merged, build):
    """build(merged), the values after the config merge. Its ValueError names the
    config file, unless build(ctx.params), the values without the config, fails the
    same way: then a flag or its default is at fault, and the message is left as is."""
    try:
        return build(merged)
    except ValueError as exc:
        try:
            build(ctx.params)
        except ValueError as again:
            if str(again) == str(exc):
                raise
        raise DatasetFormatError(f"{config_path}: {exc}") from None


@click.group()
def main():
    """Local Fréchet regression with toroidal predictors."""


@main.command("fit")
@click.option("--data", required=True, type=click.Path(dir_okay=False))
@click.option("--space", "space_path", type=click.Path(dir_okay=False),
              help="Space descriptor JSON (default: <data>.space.json).")
@click.option("--estimator", required=True, type=click.Choice(["lc", "ll"]))
@click.option("--bandwidth", help="Comma-separated bandwidths h1,..,hd.")
@click.option("--cv", "cv_path", type=click.Path(dir_okay=False),
              help="CVResult JSON whose best_h supplies the bandwidth.")
@click.option("--kernel", default="vonmises", show_default=True)
@click.option("--query", "queries", multiple=True,
              help="Query point a1,..,ad (repeatable).")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_fit(data, space_path, estimator, bandwidth, cv_path, kernel, queries, out):
    """Predict at query points; writes dataset rows plus a diagnostics JSON."""
    dataset = load_dataset(data, descriptor_path=space_path)
    fam = KernelFamily.from_name(kernel)
    if bandwidth is None and cv_path is None:
        raise click.UsageError("provide --bandwidth or --cv")
    if bandwidth is not None and cv_path is not None:
        raise click.UsageError("--bandwidth and --cv are mutually exclusive")
    if cv_path is not None:
        with file_errors(cv_path):
            blob = read_json(cv_path)
            if not isinstance(blob, dict) or not isinstance(blob.get("best_h"), list):
                raise ValueError("the --cv file must hold a JSON object with a best_h list")
            for key, flag in (("estimator", estimator), ("kernel", fam.value)):
                if blob.get(key, flag) != flag:
                    raise ValueError(f"best_h was searched with {key} {blob[key]!r}, "
                                     f"not {flag!r}")
            if not all(map(finite_number, blob["best_h"])):
                raise ValueError(f"best_h bandwidths must be numbers, finite and not bools; "
                                 f"got {json.dumps(blob['best_h'])}")
            h = BandwidthVector(blob["best_h"])
            if h.dim != dataset.dim:
                raise ValueError(f"bandwidth dimension {h.dim} != data dimension {dataset.dim}")
    else:
        h = BandwidthVector(_parse_floats(bandwidth, "--bandwidth"))
    if not queries:
        raise click.UsageError("provide at least one --query")
    angles = []
    for i, q in enumerate(queries, start=1):
        vals = _parse_floats(q, f"--query #{i}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"--query #{i} {q!r} has a non-finite angle")
        if len(vals) != dataset.dim:
            raise ValueError(f"query row {i} has {len(vals)} angles, expected {dataset.dim}")
        angles.append(vals)
    angles = np.array(angles)
    fits = fit_queries(dataset, angles, h, fam, estimator)
    predictions = Dataset(dataset.space, angles, fits.values)
    # "converged" is cause == "ok", kept for earlier readers of the file; the
    # diagnostics are written, from whole columns, before a failed row stops the run
    keys = ("angles", "condition_number", "sigma", "solver_iterations", "cause")
    columns = (predictions.angles, fits.condition_number, fits.sigma, fits.iterations, fits.cause)
    write_json(str(out) + ".diag.json", [
        {"query_row": i, **dict(zip(keys, row)), "converged": row[-1] == OK}
        for i, row in enumerate(zip(*(column.tolist() for column in columns)), start=1)])
    if not fits.ok.all():
        i = int(np.argmin(fits.ok))
        click.echo(f"numerical failure at query row {i + 1}: {fits.error(i)}", err=True)
        sys.exit(3)
    save_dataset(out, predictions)


@main.command("cv")
@click.option("--data", required=True, type=click.Path(dir_okay=False))
@click.option("--space", "space_path", type=click.Path(dir_okay=False))
@click.option("--estimator", required=True, type=click.Choice(["lc", "ll"]))
@click.option("--kernel", default="vonmises", show_default=True)
@click.option("--grid1", default="0.1:1.0:10", show_default=True,
              help="Stage-one grid, e.g. 0.1:1.0:10 or 0.1,0.2,0.4 ('x' joins axes).")
@click.option("--stage2-frac", "stage2_frac", default=0.25, show_default=True,
              type=float)
@click.option("--stage2-halfwidth", "stage2_halfwidth", default=2, show_default=True,
              type=int)
@click.option("--k", default=5, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              help="JSON config merged under explicit flags.")
@click.pass_context
@_cli_errors
def cmd_cv(ctx, data, space_path, estimator, kernel, grid1, stage2_frac,
           stage2_halfwidth, k, seed, out, config_path):
    """Two-stage cross-validated bandwidth search; writes the CVResult JSON."""
    merged = _merge_config(ctx, config_path, ["kernel", "grid1", "stage2_frac",
                                              "stage2_halfwidth", "k", "seed"])
    dataset = load_dataset(data, descriptor_path=space_path)
    fam, grid, _ = _config_checked(ctx, config_path, merged, lambda m: (
        KernelFamily.from_name(m["kernel"]),
        _parse_grid1(m["grid1"], dataset.dim, m["stage2_frac"], m["stage2_halfwidth"]),
        kfold_split(dataset.n, m["k"], m["seed"])))  # the folds two_stage_search makes
    result = two_stage_search(dataset, fam, grid, k=merged["k"], seed=merged["seed"],
                              estimator=estimator)
    write_json(out, result.to_json())


@main.command("simulate")
@click.option("--n", default=100, show_default=True, type=int)
@click.option("--sigma", default=0.1, show_default=True, type=float)
@click.option("--reps", default=20, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--quad", default=30, show_default=True, type=int,
              help="Quadrature points per axis for the error integral.")
@click.option("--grid1", default="0.1:1.0:10", show_default=True)
@click.option("--estimators", default="lc,ll", show_default=True)
@click.option("--kernel", default="vonmises", show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(dir_okay=False))
@click.pass_context
@_cli_errors
def cmd_simulate(ctx, n, sigma, reps, seed, quad, grid1, estimators, kernel, out,
                 config_path):
    """Monte Carlo study on the 2-torus with sphere-valued responses."""
    merged = _merge_config(ctx, config_path, ["n", "sigma", "reps", "seed", "quad",
                                              "grid1", "estimators", "kernel"])
    sim_config = _config_checked(ctx, config_path, merged, lambda m: SimConfig(
        n=m["n"], sigma=m["sigma"], reps=m["reps"], seed=m["seed"],
        grid=_parse_grid1(m["grid1"], 2, 0.25, 2), quad_per_axis=m["quad"],
        estimators=tuple(m["estimators"].split(",")), kernel=KernelFamily.from_name(m["kernel"])))
    with file_errors(out), tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(out))):
        pass  # --out in a directory that takes no file fails now, not after the study
    report = run_study(sim_config)
    write_json(out, report.to_json())
    click.echo(f"wall clock: {report.wall_clock_s:.1f}s", err=True)
    for est, value in report.mise.items():
        shown = "n/a" if value is None else f"{value:.4f}"
        click.echo(f"MISE[{est}] = {shown} (excluded {report.excluded[est]})", err=True)


@main.command("ingest-network")
@click.option("--trips", required=True, type=click.Path(dir_okay=False))
@click.option("--k", "n_nodes", required=True, type=int, help="Number of regions.")
@click.option("--cw", type=float, help="Edge-weight cap (default: max observed).")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_ingest_network(trips, n_nodes, cw, out):
    """Aggregate trip records into a graph-Laplacian dataset."""
    dataset = trips_to_dataset(read_trips(trips, n_nodes), n_nodes, cw)
    save_dataset(out, dataset)
    click.echo(f"wrote {dataset.n} Laplacians "
               f"(c_w = {dataset.space.c_w})", err=True)


@main.command("eval")
@click.option("--pred", required=True, type=click.Path(dir_okay=False))
@click.option("--truth", required=True, type=click.Path(dir_okay=False))
@click.option("--space", "space_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_eval(pred, truth, space_path, out):
    """Squared-distance summary (mean, max) between two dataset files."""
    space = load_space(space_path)
    pred_data = load_dataset(pred, space=space)
    truth_data = load_dataset(truth, space=space)
    if pred_data.angles.shape != truth_data.angles.shape:
        raise ValueError(f"{pred} holds {pred_data.n} rows of {pred_data.dim} angles, "
                         f"{truth} {truth_data.n} rows of {truth_data.dim}")
    moved = np.abs(canonicalize(pred_data.angles - truth_data.angles)).max(axis=1) > 1e-9
    if moved.any():  # 1e-9 rad: a re-read fit output is wrapped twice, so not bit-equal
        raise ValueError(f"row {np.argmax(moved) + 1} of {pred} and of {truth} holds "
                         f"different angles")
    d2 = space.pairwise_dist2(pred_data.responses, truth_data.responses)
    write_json(out, {"count": int(pred_data.n),
                     "mean_squared_distance": float(d2.mean()),
                     "max_squared_distance": float(d2.max())})


if __name__ == "__main__":
    main()
