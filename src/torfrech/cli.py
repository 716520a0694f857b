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
import sys

import click
import numpy as np

from .bandwidth import GridSpec, two_stage_search
from .errors import NumericalError
from .frechet import Dataset, fit_queries
from .io import (load_dataset, load_space, read_json, read_trips, save_dataset,
                 trips_to_dataset, write_json)
from .kernels import BandwidthVector, KernelFamily
from .metric import finite_number
from .simulate import SimConfig, run_study


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
        raise click.UsageError(f"could not parse {what} {text!r} as comma-separated "
                               f"numbers") from None


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
                raise click.UsageError(f"grid segment {seg!r} must be start:stop:count")
            try:
                start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise click.UsageError(f"could not parse grid segment {seg!r}") from None
            axes.append(tuple(np.linspace(start, stop, count)))
        else:
            axes.append(tuple(_parse_floats(seg, "grid segment")))
    if len(axes) == 1 and dim > 1:
        axes = axes * dim
    if len(axes) != dim:
        raise click.UsageError(f"grid has {len(axes)} axes but the data has {dim}")
    try:
        return GridSpec(tuple(axes), stage2_fraction, stage2_halfwidth)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _merge_config(ctx, config_path, names):
    """Fill parameters the user left at their defaults from the JSON object in the
    config file. Each key must be one of `names`, and each value a string or a
    finite number, converted by its flag's type."""
    from click.core import ParameterSource

    config = {} if config_path is None else read_json(config_path, "config file")
    if not isinstance(config, dict):
        raise ValueError(f"{config_path}: the config file must hold a JSON object")
    unknown = sorted(set(config) - set(names))
    if unknown:
        raise ValueError(f"{config_path}: unknown config key(s) {', '.join(map(repr, unknown))}"
                         f"; {ctx.command.name} takes {', '.join(names)}")
    params = {p.name: p for p in ctx.command.params}
    out = {}
    for name in names:
        if name in config and \
                ctx.get_parameter_source(name) != ParameterSource.COMMANDLINE:
            value = config[name]
            if not (isinstance(value, str) or finite_number(value)):
                raise ValueError(f"config key {name!r} must be a string or a finite number, "
                                 f"got {json.dumps(value)}")
            try:
                out[name] = params[name].type.convert(value, params[name], ctx)
            except click.BadParameter as exc:
                raise ValueError(f"config key {name!r}: {exc.message}") from None
        else:
            out[name] = ctx.params[name]
    return out


@click.group()
def main():
    """Local Fréchet regression with toroidal predictors."""


@main.command("fit")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--space", "space_path", type=click.Path(exists=True, dir_okay=False),
              help="Space descriptor JSON (default: <data>.space.json).")
@click.option("--estimator", required=True, type=click.Choice(["lc", "ll"]))
@click.option("--bandwidth", help="Comma-separated bandwidths h1,..,hd.")
@click.option("--cv", "cv_path", type=click.Path(exists=True, dir_okay=False),
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
        blob = read_json(cv_path, "--cv file")
        if not isinstance(blob, dict) or not isinstance(blob.get("best_h"), list):
            raise ValueError(f"{cv_path}: the --cv file must hold a JSON object with a "
                             f"best_h list")
        h_values = blob["best_h"]
    else:
        h_values = _parse_floats(bandwidth, "--bandwidth")
    h = BandwidthVector(h_values)
    if not queries:
        raise click.UsageError("provide at least one --query")
    angles = []
    for i, q in enumerate(queries, start=1):
        vals = _parse_floats(q, f"--query #{i}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"--query #{i} {q!r} has a non-finite angle")
        if len(vals) != dataset.dim:
            raise click.UsageError(f"query row {i} has {len(vals)} angles, "
                                   f"expected {dataset.dim}")
        angles.append(vals)
    angles = np.array(angles)
    fits = fit_queries(dataset, angles, h, fam, estimator)
    predictions = Dataset(dataset.space, angles, fits.values)
    # "converged" is cause == "ok", kept for earlier readers of the file; the
    # diagnostics are written before a failed row stops the run
    diagnostics = [{
        "query_row": i + 1,
        "angles": [float(a) for a in predictions.angles[i]],
        "condition_number": float(fits.condition_number[i]),
        "sigma": float(fits.sigma[i]),
        "solver_iterations": int(fits.iterations[i]),
        "converged": bool(fits.ok[i]),
        "cause": str(fits.cause[i]),
    } for i in range(predictions.n)]
    write_json(str(out) + ".diag.json", diagnostics)
    if not fits.ok.all():
        i = int(np.argmin(fits.ok))
        click.echo(f"numerical failure at query row {i + 1}: {fits.error(i)}", err=True)
        sys.exit(3)
    save_dataset(out, predictions)


@main.command("cv")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--space", "space_path", type=click.Path(exists=True, dir_okay=False))
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
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON config merged under explicit flags.")
@click.pass_context
@_cli_errors
def cmd_cv(ctx, data, space_path, estimator, kernel, grid1, stage2_frac,
           stage2_halfwidth, k, seed, out, config_path):
    """Two-stage cross-validated bandwidth search; writes the CVResult JSON."""
    merged = _merge_config(ctx, config_path, ["kernel", "grid1", "stage2_frac",
                                              "stage2_halfwidth", "k", "seed"])
    dataset = load_dataset(data, descriptor_path=space_path)
    fam = KernelFamily.from_name(merged["kernel"])
    grid = _parse_grid1(merged["grid1"], dataset.dim, merged["stage2_frac"],
                        merged["stage2_halfwidth"])
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
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_cli_errors
def cmd_simulate(ctx, n, sigma, reps, seed, quad, grid1, estimators, kernel, out,
                 config_path):
    """Monte Carlo study on the 2-torus with sphere-valued responses."""
    merged = _merge_config(ctx, config_path, ["n", "sigma", "reps", "seed", "quad",
                                              "grid1", "estimators", "kernel"])
    grid = _parse_grid1(merged["grid1"], 2, 0.25, 2)
    sim_config = SimConfig(
        n=merged["n"], sigma=merged["sigma"], reps=merged["reps"], seed=merged["seed"],
        grid=grid, quad_per_axis=merged["quad"],
        estimators=tuple(merged["estimators"].split(",")),
        kernel=KernelFamily.from_name(merged["kernel"]))
    report = run_study(sim_config)
    write_json(out, report.to_json())
    click.echo(f"wall clock: {report.wall_clock_s:.1f}s", err=True)
    for est, value in report.mise.items():
        shown = "n/a" if value is None else f"{value:.4f}"
        click.echo(f"MISE[{est}] = {shown} (excluded {report.excluded[est]})", err=True)


@main.command("ingest-network")
@click.option("--trips", required=True, type=click.Path(exists=True, dir_okay=False))
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
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--space", "space_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_eval(pred, truth, space_path, out):
    """Squared-distance summary (mean, max) between two dataset files."""
    space = load_space(space_path)
    pred_data = load_dataset(pred, space=space)
    truth_data = load_dataset(truth, space=space)
    if pred_data.n != truth_data.n:
        raise click.UsageError(f"row counts differ: {pred_data.n} predictions vs "
                               f"{truth_data.n} truths")
    d2 = space.pairwise_dist2(pred_data.responses, truth_data.responses)
    write_json(out, {"count": int(pred_data.n),
                     "mean_squared_distance": float(d2.mean()),
                     "max_squared_distance": float(d2.max())})


if __name__ == "__main__":
    main()
