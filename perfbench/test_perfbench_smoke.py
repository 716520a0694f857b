"""Smoke test of the benchmark: each workload runs once at tiny sizes, every
output check passes, and the result names every metric with its unit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())

END_TO_END = {"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "pred_mse", "ok_share"}
PER_LAYER = {
    "metric.solve_s", "metric.solve_rows", "metric.iters_sum", "metric.iters_max",
    "metric.nonconverged_rows", "metric.validate_s", "metric.validated_payloads",
    "metric.score_s", "torus.geometry_s", "torus.geometry_calls", "torus.geometry_bytes",
    "kernels.eval_s", "kernels.evals", "frechet.moments_s", "frechet.weights_s",
    "frechet.rows", "frechet.failed_rows", "bandwidth.candidates",
    "bandwidth.candidate_p50_ms", "bandwidth.candidate_p90_ms", "parallel.workers",
    "parallel.items", "parallel.map_s", "parallel.speedup", "io.load_s", "io.save_s",
    "io.ingest_s", "cli.self_s", "trace.overhead",
}


def _run_all(trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "all", "--smoke",
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section,names", [(0, "end_to_end", END_TO_END),
                                                 (1, "per_layer", PER_LAYER)])
def test_smoke_reports_every_metric(trace, section, names):
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert names <= set(spec)
    lines, result = _run_all(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    for workload in SPEC["workloads"]:
        for name, unit in spec.items():
            entry = result["metrics"][f"{workload['name']}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert sum("error_share" in line for line in lines) == len(SPEC["workloads"])


def test_refuses_to_run_without_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "cv_sphere", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
