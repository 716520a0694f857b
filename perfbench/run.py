#!/usr/bin/env python3
"""Benchmark of the torfrech CLI on four seeded synthetic workloads.

    python3 perfbench/run.py --workload cv_sphere --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all [--trace 1] [--smoke] [--out FILE]

Run from the root of a source checkout: the package is imported from
`src/`, and the run exits with status 2 when that tree is missing. Inputs are
generated from `--seed` into `.perfbench_work/` (removed afterwards); the
`torfrech` subcommands run in this process through the click entry point and
see only those files.

An untraced run (`--trace 0`) first times the set-up (a fresh interpreter that
imports the package and writes the inputs) several times, then repeats whole
passes over the workload's CLI invocations while the next pass is expected to
end within `--seconds` (at least one pass), and prints the end-to-end metrics:
medians over the passes of wall and CPU time (all threads), peak RSS of this
process, the median set-up time, pred_mse, and ok_share. The timed passes run
on one thread (PINNED_ENV below), after one untimed warm-up pass at SMOKE
sizes. ok_share is 1 - error_share, the share of
invocations that did not exit non-zero, raise or fail their output check;
error_share itself is 0 when all is well, and a reported metric must never be
0, so it appears only in the record. A traced run (`--trace 1`) makes one
untraced pass and one pass with every layer entry point wrapped (see
spans.py), both at the CLI's default worker count, then one untraced pass with
TORFRECH_THREADS=1, and prints the per-layer metrics. Every invocation's output
is checked; outputs must be byte-identical across passes and thread counts,
and on the default seed they must match reference.json.

The last line of standard output is the result as one JSON object; the line
before it is the full record (machine, passes, checks, accounting).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Every timed pass runs on one thread: on a machine of a few shared cores, two
# torfrech workers contending for the GIL and BLAS threads spinning beside them
# make wall and CPU time vary far more from run to run than the program's work
# does. numpy reads the BLAS variables when it is first imported, just below.
PINNED_ENV = {"TORFRECH_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STARTED_ENV = {name: os.environ.get(name) for name in PINNED_ENV}
os.environ.update(PINNED_ENV)

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900
THREAD_VARS = tuple(PINNED_ENV)
AUTO_THREADS = "0"  # TORFRECH_THREADS value of the CLI default: one worker per core


def _require_source() -> None:
    if not (SRC / "torfrech" / "__init__.py").is_file():
        print(f"error: no torfrech source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _metric_units() -> tuple:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --------------------------------------------------------------------------
# machine record


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    from torfrech.parallel import resolve_threads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        workers = resolve_threads()
    except ValueError as exc:
        workers = f"invalid: {exc}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "env_at_start": STARTED_ENV,
        "torfrech_workers": workers,
        "torfrech_auto_workers": resolve_threads(int(AUTO_THREADS)),
        "commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# set-up


def _setup_child(workload: str, seed: int, smoke: bool, directory: Path) -> float:
    """Wall seconds for a fresh interpreter to import torfrech and write the inputs."""
    directory.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-dir", str(directory)] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return elapsed


def _digest(directory: Path, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names if (directory / name).is_file()}


def timed_setup(workload: str, seed: int, smoke: bool, workdir: Path, repeats: int):
    """(median set-up seconds, all timings, input directory). Every repeat must
    write byte-identical inputs."""
    times, digests = [], []
    for i in range(repeats):
        d = workdir / f"setup{i}"
        times.append(_setup_child(workload, seed, smoke, d))
        digests.append(_digest(d, sorted(p.name for p in d.iterdir())))
    if any(dg != digests[0] for dg in digests):
        raise RuntimeError(f"set-up of {workload} is not deterministic for seed {seed}")
    return statistics.median(times), times, workdir / f"setup{repeats - 1}"


# --------------------------------------------------------------------------
# passes


def _invoke(argv) -> str | None:
    """Run one CLI command in-process; None on success, else the reason."""
    from torfrech import cli

    captured = io.StringIO()
    try:
        with contextlib.redirect_stderr(captured):
            cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return f"exit {exc.code}: {captured.getvalue().strip()[-500:]}"
    except Exception:  # any crash of the program is a failed invocation
        return traceback.format_exc(limit=-3)
    return None


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(invocations, directory: Path) -> dict:
    """One pass over the workload's invocations; checks run outside the timing."""
    wall = cpu = 0.0
    results = []
    for inv in invocations:
        for name in inv.outputs:
            (directory / name).unlink(missing_ok=True)
        t0, c0 = time.perf_counter(), _cpu()
        error = _invoke(inv.argv)
        wall += time.perf_counter() - t0
        cpu += _cpu() - c0
        figures = None
        if error is None:
            try:
                figures = inv.check()
            except (workloads.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                error = f"check: {exc}"
        results.append({"label": inv.label, "error": error, "figures": figures,
                        "digest": _digest(directory, inv.outputs)})
    return {"wall_s": wall, "cpu_s": cpu, "results": results}


def _warm_up(workload: str, seed: int, directory: Path) -> None:
    """One untimed, unchecked pass at SMOKE sizes, so that first-call costs
    (lazy imports, allocator and cache warm-up) stay out of the timed passes."""
    sizes = workloads.SMOKE[workload]
    directory.mkdir()
    workloads.write_inputs(workload, seed, sizes, directory)
    run_pass(workloads.plan(workload, seed, sizes, directory), directory)


def _compare(pass_, first) -> None:
    """Mark invocations whose outputs differ from the first pass as failed.

    Every pass reads the same inputs, so outputs must be byte-identical,
    whatever the thread count and whether or not the pass is traced.
    """
    for res, ref in zip(pass_["results"], first["results"]):
        if res["error"] is None and res["digest"] != ref["digest"]:
            res["error"] = "outputs differ from the first pass"


def _reference_check(workload: str, first: dict) -> None:
    """On the default seed, compare each invocation's figures with reference.json."""
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    expected = ref["workloads"][workload]
    for res in first["results"]:
        expect = expected.get(res["label"])
        if res["error"] is not None or expect is None:
            continue
        fig = res["figures"]
        if abs(fig["score"] / expect["score"] - 1.0) > ref["score_rel_tol"]:
            res["error"] = f"reference: score {fig['score']} vs {expect['score']}"
        elif "best_h" in expect and any(
                abs(a - b) > expect["h_tol"] + 1e-12
                for a, b in zip(fig["best_h"], expect["best_h"])):
            res["error"] = f"reference: best_h {fig['best_h']} vs {expect['best_h']}"


def _pred_mse(first: dict) -> float:
    scores = [r["figures"]["score"] for r in first["results"]
              if r["figures"] is not None and "score" in r["figures"]]
    return statistics.mean(scores) if scores else 0.0


@contextlib.contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """Run one workload; returns (result line, full record)."""
    end_units, layer_units = _metric_units()
    sizes = (workloads.SMOKE if smoke else workloads.FULL)[workload]
    load_before = _loadavg()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            inputs = workdir / "inputs"
            inputs.mkdir(parents=True)
            workloads.write_inputs(workload, seed, sizes, inputs)
            setup = None
        else:
            repeats = 1 if smoke else SETUP_REPEATS
            setup_s, setup_times, inputs = timed_setup(workload, seed, smoke, workdir,
                                                       repeats)
            setup = {"median_s": setup_s, "runs_s": setup_times}
        import torfrech.cli  # noqa: F401  (imported outside the timed passes)

        if not smoke:
            _warm_up(workload, seed, workdir / "warm-up")
        invocations = workloads.plan(workload, seed, sizes, inputs)
        if trace:
            metrics, accounting, passes = _traced(invocations, inputs)
        else:
            accounting, passes = None, []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(invocations, inputs))
                elapsed = time.perf_counter() - start
                if elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
        first = passes[0]
        for p in passes[1:]:
            _compare(p, first)
        if seed == DEFAULT_SEED and not smoke:
            _reference_check(workload, first)
        results = [r for p in passes for r in p["results"]]
        attempted = len(results)
        failed = sum(r["error"] is not None for r in results)
        if not trace:
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup["median_s"],
                "pred_mse": _pred_mse(first),
                "ok_share": 1.0 - failed / attempted,
            }
        units = layer_units if trace else end_units
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "sizes": sizes, "machine": machine_record(),
            "loadavg_before": load_before, "loadavg_after": _loadavg(),
            "setup": setup, "error_share": failed / attempted,
            "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                        "results": [{k: r[k] for k in ("label", "error", "figures")}
                                    for r in p["results"]]} for p in passes],
            "accounting": accounting,
            "metrics": metrics,
            "result": result,
        }
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _traced(invocations, inputs: Path) -> tuple:
    """Untraced and traced passes at the CLI's default worker count, then an
    untraced serial pass -> per-layer metrics."""
    import spans

    with _env("TORFRECH_THREADS", AUTO_THREADS):
        untraced = run_pass(invocations, inputs)
        recorder = spans.Recorder()
        with spans.installed(recorder):
            traced = run_pass(invocations, inputs)
    serial = run_pass(invocations, inputs)
    metrics, accounting = spans.layer_metrics(recorder.spans, traced["wall_s"])
    metrics["parallel.speedup"] = serial["wall_s"] / untraced["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    accounting.update({
        "traced_wall_s": traced["wall_s"],
        "cli.self_s": metrics["cli.self_s"],
        "untraced_wall_s": untraced["wall_s"],
        "serial_wall_s": serial["wall_s"],
        "spans": len(recorder.spans),
    })
    return metrics, accounting, [untraced, traced, serial]


# --------------------------------------------------------------------------
# all workloads


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    table, records = [], {}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        records[name] = record
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
        rows = [(m, e["value"], e["unit"]) for m, e in result["metrics"].items()]
        table.append((name, rows + [("error_share", record["error_share"], "share")]))
    for name, rows in table:
        print(f"{name}:")
        for metric, value, unit in rows:
            print(f"  {metric:28s} {value:14.6g} {unit}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass per workload")
    parser.add_argument("--out", help="with --workload all: write the records here")
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.setup_dir:
        import torfrech.cli  # noqa: F401  (the import is part of the set-up time)

        sizes = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
        workloads.write_inputs(args.workload, args.seed, sizes, Path(args.setup_dir))
        return 0
    if args.workload == "all":
        return run_all(args)
    seconds = 0.0 if args.smoke else args.seconds
    result, record = measure(args.workload, args.seed, seconds, bool(args.trace),
                             args.smoke)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
