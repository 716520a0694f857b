import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from torfrech import cli
from torfrech.cli import main
from torfrech.errors import NumericalError
from torfrech.frechet import (
    QUERY_CHUNK_CELLS,
    Dataset,
    local_constant_estimate,
    local_linear_estimate,
    local_moments,
)
from torfrech.kernels import BandwidthVector, KernelFamily
from torfrech.io import save_dataset
from torfrech.metric import ScalarSpace
from torfrech.torus import TorusPoint


@pytest.fixture
def runner():
    return CliRunner()


def write_scalar_dataset(tmp_path, values, name="data.csv", angles=None):
    rng = np.random.default_rng(70)
    if angles is None:
        angles = rng.uniform(-math.pi, math.pi, size=(len(values), 2))
    space = ScalarSpace(-50, 50)
    data = Dataset(space, angles, space.stack([float(v) for v in values]))
    path = tmp_path / name
    save_dataset(path, data)
    return path, data


def test_fit_constant_dataset(tmp_path, runner):
    path, _ = write_scalar_dataset(tmp_path, np.full(10, 3.25))
    out = tmp_path / "pred.csv"
    result = runner.invoke(main, ["fit", "--data", str(path), "--estimator", "lc",
                                  "--bandwidth", "0.5,0.5", "--query", "0.1,0.2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta_1,theta_2,response"
    assert json.loads(lines[1].split(",")[-1].strip('"')) == pytest.approx(3.25)
    diag = json.loads((tmp_path / "pred.csv.diag.json").read_text())
    assert diag[0]["query_row"] == 1


def test_fit_matches_nw_oracle(tmp_path, runner):
    rng = np.random.default_rng(71)
    values = rng.normal(size=12)
    path, data = write_scalar_dataset(tmp_path, values)
    out = tmp_path / "pred.csv"
    result = runner.invoke(main, ["fit", "--data", str(path), "--estimator", "lc",
                                  "--bandwidth", "0.7,0.7", "--query", "0.3,-0.4",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    # independent Nadaraya-Watson recomputation
    delta = data.angles - np.array([0.3, -0.4])
    k = np.exp(-((1 - np.cos(delta)) / 0.49).sum(axis=1))
    oracle = float(np.dot(k, data.responses) / k.sum())
    pred = json.loads(out.read_text().strip().splitlines()[1].split(",")[-1].strip('"'))
    assert pred == pytest.approx(oracle, abs=1e-10)


def test_fit_requires_bandwidth_or_cv(tmp_path, runner):
    path, _ = write_scalar_dataset(tmp_path, np.ones(5))
    result = runner.invoke(main, ["fit", "--data", str(path), "--estimator", "lc",
                                  "--query", "0,0", "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 2
    assert "--bandwidth" in result.output


def test_fit_singular_design_exit_code_names_query(tmp_path, runner):
    path, _ = write_scalar_dataset(tmp_path, [1.0],
                                   angles=np.array([[0.0, 0.0]]))
    result = runner.invoke(main, ["fit", "--data", str(path), "--estimator", "ll",
                                  "--bandwidth", "0.5,0.5", "--query", "0.0,0.0",
                                  "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 3
    assert "query row 1" in result.output


def _predictions(path):
    return [json.loads(line.split(",")[-1].strip('"'))
            for line in path.read_text().strip().splitlines()[1:]]


@pytest.mark.parametrize("estimator", ["lc", "ll"])
def test_fit_in_chunks_matches_single_query_fits(tmp_path, runner, estimator):
    # two queries fill a chunk, so five queries run as three batches
    n = QUERY_CHUNK_CELLS // 2
    rng = np.random.default_rng(75)
    path, data = write_scalar_dataset(tmp_path, rng.normal(size=n))
    queries = rng.uniform(-math.pi, math.pi, size=(5, 2))
    out = tmp_path / "pred.csv"
    args = ["fit", "--data", str(path), "--estimator", estimator,
            "--bandwidth", "0.4,0.6", "--out", str(out)]
    for q in queries:
        args += ["--query", f"{float(q[0])!r},{float(q[1])!r}"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    preds = _predictions(out)
    diag = json.loads((tmp_path / "pred.csv.diag.json").read_text())
    assert len(preds) == len(diag) == 5
    h = BandwidthVector([0.4, 0.6])
    vm = KernelFamily.VON_MISES
    fitter = local_constant_estimate if estimator == "lc" else local_linear_estimate
    for i, q in enumerate(queries):
        x = TorusPoint(q)
        assert preds[i] == pytest.approx(fitter(data, x, h, vm).estimate, abs=1e-12)
        assert diag[i]["query_row"] == i + 1
        if estimator == "ll":
            m = local_moments(data, x, h, vm)
            assert diag[i]["condition_number"] == pytest.approx(m.condition_number,
                                                                rel=1e-12)
            assert diag[i]["sigma"] == pytest.approx(m.sigma, rel=1e-12)
        else:
            assert math.isnan(diag[i]["condition_number"])
            assert math.isnan(diag[i]["sigma"])


def test_fit_failure_names_the_failing_query_row(tmp_path, runner):
    # near (2, 2) the uniform kernel sees only points with theta_1 = 0, so mu2
    # is singular there; the cluster around the first query is well spread
    rng = np.random.default_rng(76)
    spread = rng.uniform(-0.5, 0.5, size=(12, 2))
    line = np.column_stack([np.full(6, 2.0), 2.0 + np.linspace(-0.4, 0.4, 6)])
    angles = np.vstack([spread, line])
    path, _ = write_scalar_dataset(tmp_path, rng.normal(size=18), angles=angles)
    result = runner.invoke(main, ["fit", "--data", str(path), "--estimator", "ll",
                                  "--kernel", "uniform", "--bandwidth", "0.5,0.5",
                                  "--query", "0.0,0.0", "--query", "2.0,2.0",
                                  "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 3
    assert "query row 2" in result.output
    assert "singular" in result.output
    # the diagnostics are written before the exit, with each row's cause
    assert not (tmp_path / "o.csv").exists()
    diag = json.loads((tmp_path / "o.csv.diag.json").read_text())
    assert [(row["query_row"], row["cause"], row["converged"]) for row in diag] == [
        (1, "ok", True), (2, "singular", False)]


@pytest.mark.parametrize("blob", [[0.5, 0.5], {"best_score": 1.0}])
def test_fit_rejects_malformed_cv_file(tmp_path, runner, blob):
    path, _ = write_scalar_dataset(tmp_path, np.ones(5))
    cv = tmp_path / "cv.json"
    cv.write_text(json.dumps(blob))
    result = runner.invoke(main, ["fit", "--data", str(path), "--estimator", "lc",
                                  "--cv", str(cv), "--query", "0,0",
                                  "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 2
    assert "best_h" in result.output and "cv.json" in result.output
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1


def test_cv_singleton_grid_and_determinism(tmp_path, runner):
    rng = np.random.default_rng(72)
    path, _ = write_scalar_dataset(tmp_path, rng.normal(size=20))
    out1 = tmp_path / "cv1.json"
    out2 = tmp_path / "cv2.json"
    args = ["cv", "--data", str(path), "--estimator", "lc", "--grid1", "0.6",
            "--k", "4", "--seed", "9"]
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    blob = json.loads(out1.read_text())
    assert blob["best_h"] == [0.6, 0.6]


def test_cv_uniform_kernel_keeps_infinite_sentinel(tmp_path, runner):
    angles = np.stack([np.linspace(-3, 3, 10), np.linspace(-3, 3, 10)], axis=1)
    path, _ = write_scalar_dataset(tmp_path, np.arange(10.0), angles=angles)
    out = tmp_path / "cv.json"
    result = runner.invoke(main, ["cv", "--data", str(path), "--estimator", "lc",
                                  "--kernel", "uniform", "--grid1", "0.01,2.0",
                                  "--k", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    blob = json.loads(out.read_text())
    tiny = [e for e in blob["stage1"] if e["h"] == [0.01, 0.01]]
    assert tiny and tiny[0]["score"] == float("inf")


def test_cv_config_file_merging(tmp_path, runner):
    rng = np.random.default_rng(73)
    path, _ = write_scalar_dataset(tmp_path, rng.normal(size=15))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid1": "0.5", "seed": 4, "k": 3}))
    out = tmp_path / "cv.json"
    result = runner.invoke(main, ["cv", "--data", str(path), "--estimator", "lc",
                                  "--config", str(config), "--seed", "11",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    blob = json.loads(out.read_text())
    assert blob["seed"] == 11  # explicit flag wins
    assert blob["best_h"] == [0.5, 0.5]  # grid taken from config


def test_ingest_network_toy_and_empty(tmp_path, runner):
    trips = tmp_path / "trips.csv"
    trips.write_text("hour,day,doy_len,origin,dest\n"
                     "3,10,365,1,2\n3,10,365,2,1\n3,10,365,1,2\n")
    out = tmp_path / "net.csv"
    result = runner.invoke(main, ["ingest-network", "--trips", str(trips),
                                  "--k", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    row = out.read_text().strip().splitlines()[1]
    assert json.loads(row.split('"')[1]) == [3.0, -3.0, -3.0, 3.0]

    empty = tmp_path / "none.csv"
    empty.write_text("hour,day,doy_len,origin,dest\n")
    out2 = tmp_path / "net2.csv"
    result = runner.invoke(main, ["ingest-network", "--trips", str(empty),
                                  "--k", "2", "--out", str(out2)])
    assert result.exit_code == 2, result.output
    assert "none.csv" in result.output
    assert not out2.exists()


def test_ingest_network_k13_reload_validates(tmp_path, runner):
    rng = np.random.default_rng(74)
    lines = ["hour,day,doy_len,origin,dest"]
    for _ in range(1000):
        lines.append(f"{rng.integers(0, 24)},{rng.integers(1, 366)},365,"
                     f"{rng.integers(1, 14)},{rng.integers(1, 14)}")
    trips = tmp_path / "trips.csv"
    trips.write_text("\n".join(lines) + "\n")
    out = tmp_path / "net.csv"
    result = runner.invoke(main, ["ingest-network", "--trips", str(trips),
                                  "--k", "13", "--out", str(out)])
    assert result.exit_code == 0, result.output
    from torfrech.io import load_dataset
    data = load_dataset(out)
    assert data.space.n_nodes == 13
    for i in range(data.n):
        data.space.validate(data.responses[i])


def test_eval_summary(tmp_path, runner):
    path_a, data = write_scalar_dataset(tmp_path, [1.0, 2.0], name="a.csv")
    path_b, _ = write_scalar_dataset(tmp_path, [1.5, 4.0], name="b.csv",
                                     angles=data.angles)
    out = tmp_path / "eval.json"
    result = runner.invoke(main, ["eval", "--pred", str(path_a), "--truth",
                                  str(path_b), "--space",
                                  str(tmp_path / "a.csv.space.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    blob = json.loads(out.read_text())
    assert blob["mean_squared_distance"] == pytest.approx((0.25 + 4.0) / 2)
    assert blob["max_squared_distance"] == pytest.approx(4.0)
    # identical files give zero
    out0 = tmp_path / "eval0.json"
    runner.invoke(main, ["eval", "--pred", str(path_a), "--truth", str(path_a),
                         "--space", str(tmp_path / "a.csv.space.json"),
                         "--out", str(out0)])
    assert json.loads(out0.read_text())["mean_squared_distance"] == 0.0


def test_eval_mismatched_rows_exit_2(tmp_path, runner):
    path_a, _ = write_scalar_dataset(tmp_path, [1.0, 2.0], name="a.csv")
    path_b, _ = write_scalar_dataset(tmp_path, [1.0], name="b.csv")
    result = runner.invoke(main, ["eval", "--pred", str(path_a), "--truth",
                                  str(path_b), "--space",
                                  str(tmp_path / "a.csv.space.json"),
                                  "--out", str(tmp_path / "e.json")])
    assert result.exit_code == 2


def _malformed_object_response(d):
    (d / "data.csv").write_text('theta_1,theta_2,response\n0.1,0.2,1.5\n0.3,0.4,"{""a"":1}"\n')
    (d / "data.csv.space.json").write_text('{"kind":"scalar","lo":-10,"hi":10}')
    return ["fit", "--data", str(d / "data.csv"), "--estimator", "lc",
            "--bandwidth", "0.5,0.5", "--query", "0,0", "--out", str(d / "o.csv")], "row 2"


def _malformed_descriptor_field(d):
    (d / "data.csv").write_text('theta_1,theta_2,response\n0.1,0.2,"[1,0]"\n')
    (d / "data.csv.space.json").write_text('{"kind":"sphere","p":[1]}')
    return ["fit", "--data", str(d / "data.csv"), "--estimator", "lc",
            "--bandwidth", "0.5,0.5", "--query", "0,0", "--out", str(d / "o.csv")], "'p'"


def _cv_with_config(d, text):
    path, _ = write_scalar_dataset(d, np.arange(6.0))
    (d / "config.json").write_text(text)
    return ["cv", "--data", str(path), "--estimator", "lc", "--config",
            str(d / "config.json"), "--out", str(d / "cv.json")]


def _malformed_config_value(d):
    return _cv_with_config(d, '{"k":[2]}'), "'k'"


def _missing_descriptor(d):
    path, _ = write_scalar_dataset(d, np.arange(6.0), name="net.csv")
    Path(str(path) + ".space.json").unlink()
    return ["cv", "--data", str(path), "--estimator", "lc",
            "--out", str(d / "cv.json")], "net.csv.space.json"


def _header_only_trips(d):
    (d / "trips.csv").write_text("hour,day,doy_len,origin,dest\n")
    return ["ingest-network", "--trips", str(d / "trips.csv"), "--k", "2",
            "--out", str(d / "net.csv")], "trips.csv: no trip rows"


def _malformed_cv_bandwidth(d):
    path, _ = write_scalar_dataset(d, np.ones(5))
    (d / "cv.json").write_text('{"best_h": [{}, 0.5]}')
    return ["fit", "--data", str(path), "--estimator", "lc", "--cv", str(d / "cv.json"),
            "--query", "0,0", "--out", str(d / "o.csv")], "bandwidths must be numbers"


def _fit_with_cv_file(d, text):
    path, _ = write_scalar_dataset(d, np.ones(5))
    (d / "cv.json").write_text(text)
    return ["fit", "--data", str(path), "--estimator", "lc", "--cv", str(d / "cv.json"),
            "--query", "0,0", "--out", str(d / "o.csv")]


_CV_BANDWIDTHS = "cv.json: best_h bandwidths must be numbers"


def _bool_cv_bandwidth(d):
    return _fit_with_cv_file(d, '{"best_h": [true, true]}'), _CV_BANDWIDTHS


def _string_cv_bandwidth(d):
    return _fit_with_cv_file(d, '{"best_h": ["0.5", "0.5"]}'), _CV_BANDWIDTHS


def _null_cv_bandwidth(d):
    return _fit_with_cv_file(d, '{"best_h": [null, 0.5]}'), _CV_BANDWIDTHS


def _non_finite_dataset_angle(d):
    (d / "data.csv").write_text("theta_1,theta_2,response\n0.1,0.2,1.5\ninf,0.4,2.5\n")
    (d / "data.csv.space.json").write_text('{"kind":"scalar","lo":-10,"hi":10}')
    return ["cv", "--data", str(d / "data.csv"), "--estimator", "lc",
            "--out", str(d / "cv.json")], "data.csv row 2: non-finite angle"


def _non_finite_query(d):
    path, _ = write_scalar_dataset(d, np.arange(6.0))
    return ["fit", "--data", str(path), "--estimator", "lc", "--bandwidth", "0.5,0.5",
            "--query", "0,0", "--query", "0,nan", "--out", str(d / "o.csv")], "--query #2"


def _huge_descriptor_field(d):
    # an int beyond the float range is not a finite number
    (d / "data.csv").write_text("theta_1,theta_2,response\n0.1,0.2,1.5\n")
    (d / "data.csv.space.json").write_text('{"kind":"scalar","lo":-1' + "0" * 400 + ',"hi":1}')
    return ["cv", "--data", str(d / "data.csv"), "--estimator", "lc",
            "--out", str(d / "cv.json")], "'lo'"


def _fractional_descriptor_count(d, descriptor, payload, field):
    # a count field that is not a whole number is refused, not truncated to the
    # space that the payload fits
    (d / "data.csv").write_text(f'theta_1,theta_2,response\n0.1,0.2,"{payload}"\n')
    (d / "data.csv.space.json").write_text(descriptor)
    return ["fit", "--data", str(d / "data.csv"), "--estimator", "lc",
            "--bandwidth", "0.5,0.5", "--query", "0,0", "--out", str(d / "o.csv")], f"'{field}'"


def _fractional_sphere_p(d):
    return _fractional_descriptor_count(d, '{"kind":"sphere","p":2.5}', "[1,0,0]", "p")


def _fractional_laplacian_k(d):
    return _fractional_descriptor_count(d, '{"kind":"graph_laplacian","k":3.9,"c_w":1}',
                                        "[2,-1,-1,-1,2,-1,-1,-1,2]", "k")


def _fractional_wasserstein_grid(d):
    return _fractional_descriptor_count(d, '{"kind":"wasserstein","grid":7.5,"a":0,"b":1}',
                                        "[0,0.1,0.2,0.3,0.4,0.5,0.6]", "grid")


def _huge_config_value(d):
    return _cv_with_config(d, '{"stage2_frac":1' + "0" * 400 + "}"), "'stage2_frac'"


def _invalid_json_config(d):
    return _cv_with_config(d, "{k: 3}"), "config.json"


def _non_object_config(d):
    return _cv_with_config(d, "[3]"), "config.json"


def _unknown_config_key(d):
    # cv's --estimator is required, so an "estimator" key could never apply either
    return _cv_with_config(d, '{"estimator": "cubic", "seeds": 3}'), "'seeds'"


def _invalid_json_cv_file(d):
    path, _ = write_scalar_dataset(d, np.ones(5))
    (d / "cv.json").write_text("{best_h: [0.5, 0.5]}")
    return ["fit", "--data", str(path), "--estimator", "lc", "--cv", str(d / "cv.json"),
            "--query", "0,0", "--out", str(d / "o.csv")], "cv.json"


_LONG_CELL = "9" * 140_000  # over csv's default field size limit of 131,072 characters


def _over_long_response_cell(d):
    (d / "data.csv").write_text(f"theta_1,theta_2,response\n0.1,0.2,1.5\n0.3,0.4,{_LONG_CELL}\n")
    (d / "data.csv.space.json").write_text('{"kind":"scalar","lo":-10,"hi":10}')
    return ["fit", "--data", str(d / "data.csv"), "--estimator", "lc", "--bandwidth", "0.5,0.5",
            "--query", "0,0", "--out", str(d / "o.csv")], "data.csv: field larger than"


def _over_long_trips_cell(d):
    (d / "trips.csv").write_text(
        f"hour,day,doy_len,origin,dest\n3,10,365,1,2\n3,10,365,1,{_LONG_CELL}\n")
    return ["ingest-network", "--trips", str(d / "trips.csv"), "--k", "2",
            "--out", str(d / "net.csv")], "trips.csv: field larger than"


def _non_utf8_dataset(d):
    (d / "data.csv").write_bytes(b"theta_1,theta_2,response\n0.1,0.2,1.5\n0.3,0.4,\xff\n")
    (d / "data.csv.space.json").write_text('{"kind":"scalar","lo":-10,"hi":10}')
    return ["cv", "--data", str(d / "data.csv"), "--estimator", "lc",
            "--out", str(d / "cv.json")], "data.csv: 'utf-8' codec can't decode"


def _non_utf8_trips(d):
    (d / "trips.csv").write_bytes(b"hour,day,doy_len,origin,dest\n3,10,365,1,\xff\n")
    return ["ingest-network", "--trips", str(d / "trips.csv"), "--k", "2",
            "--out", str(d / "net.csv")], "trips.csv: 'utf-8' codec can't decode"


def _negative_cv_bandwidth(d):
    return (_fit_with_cv_file(d, '{"best_h": [-0.5, 0.5]}'),
            "cv.json: all bandwidths must be finite and strictly positive")


def _short_cv_bandwidth(d):
    return (_fit_with_cv_file(d, '{"best_h": [0.5]}'),
            "cv.json: bandwidth dimension 1 != data dimension 2")


def _cv_file_for_another_estimator(d):
    return (_fit_with_cv_file(d, '{"best_h": [0.5, 0.5], "estimator": "ll"}'),
            "cv.json: best_h was searched with estimator 'll', not 'lc'")


def _cv_file_for_another_kernel(d):
    return (_fit_with_cv_file(d, '{"best_h": [0.5, 0.5], "kernel": "uniform"}'),
            "cv.json: best_h was searched with kernel 'uniform', not 'vonmises'")


def _unsplit_config_grid(d):
    return (_cv_with_config(d, '{"grid1": "0.1:1.0"}'),
            "config.json: grid segment '0.1:1.0' must be start:stop:count")


# A value from the config file that fails a check after the merge names the file;
# a bad flag beside a config file keeps the message it has without one.
def _config_stage2_frac(d):
    return (_cv_with_config(d, '{"stage2_frac": 2.0}'),
            "config.json: stage2_fraction must be in (0, 1]")


def _flag_stage2_frac_beside_a_config(d):
    return (_cv_with_config(d, '{"grid1": "0.2,0.4"}') + ["--stage2-frac", "2.0"],
            "error: stage2_fraction must be in (0, 1]")


def _config_folds(d):
    return _cv_with_config(d, '{"k": 1}'), "config.json: need at least 2 folds"


def _flag_folds_beside_a_config(d):
    return _cv_with_config(d, '{"seed": 3}') + ["--k", "1"], "error: need at least 2 folds"


def _config_folds_beyond_the_data(d):
    return _cv_with_config(d, '{"k": 7}'), "config.json: cannot split 6 observations into 7"


def _config_folds_where_the_default_fails_too(d):
    # without the config, k = 5 fails on 4 rows, but with another message
    path, _ = write_scalar_dataset(d, np.arange(4.0))
    (d / "config.json").write_text('{"k": 1}')
    return ["cv", "--data", str(path), "--estimator", "lc", "--config", str(d / "config.json"),
            "--out", str(d / "cv.json")], "config.json: need at least 2 folds"


def _config_kernel(d):
    return _cv_with_config(d, '{"kernel": "gauss"}'), "config.json: unknown kernel family 'gauss'"


def _simulate_with_config(d, text):
    (d / "config.json").write_text(text)
    return ["simulate", "--config", str(d / "config.json"), "--out", str(d / "r.json")]


def _config_estimators(d):
    return (_simulate_with_config(d, '{"estimators": "lc,cubic"}'),
            "config.json: unknown estimator 'cubic'")


def _flag_estimators_beside_a_config(d):
    return (_simulate_with_config(d, '{"n": 20}') + ["--estimators", "lc,cubic"],
            "error: unknown estimator 'cubic'")


def _config_sample_size(d):
    return _simulate_with_config(d, '{"n": 5}'), "config.json: sample size must be at least 10"


# An input path that does not exist exits 2 with one line naming it, in every command.
_MISSING = "nope.json: No such file or directory"


def _fit_with_a_missing_cv_file(d):
    path, _ = write_scalar_dataset(d, np.ones(5))
    return ["fit", "--data", str(path), "--estimator", "lc", "--cv", str(d / "nope.json"),
            "--query", "0,0", "--out", str(d / "o.csv")], _MISSING


def _fit_with_a_missing_data_file(d):
    path, _ = write_scalar_dataset(d, np.ones(5))
    return ["fit", "--data", str(d / "nope.csv"), "--space", f"{path}.space.json",
            "--estimator", "lc", "--bandwidth", "0.5,0.5", "--query", "0,0",
            "--out", str(d / "o.csv")], "nope.csv: No such file or directory"


def _cv_with_a_missing_config(d):
    path, _ = write_scalar_dataset(d, np.arange(6.0))
    return ["cv", "--data", str(path), "--estimator", "lc", "--config", str(d / "nope.json"),
            "--out", str(d / "cv.json")], _MISSING


def _simulate_with_a_missing_config(d):
    return ["simulate", "--config", str(d / "nope.json"), "--out", str(d / "r.json")], _MISSING


def _ingest_a_missing_trips_file(d):
    return ["ingest-network", "--trips", str(d / "nope.csv"), "--k", "2",
            "--out", str(d / "net.csv")], "nope.csv: No such file or directory"


def _eval_with_a_missing_space(d):
    args = _eval(d, np.zeros((2, 2)), np.zeros((2, 2)))
    args[args.index("--space") + 1] = str(d / "nope.json")
    return args, _MISSING


def _eval(d, pred_angles, truth_angles):
    space = ScalarSpace(-50, 50)
    for name, angles in (("pred.csv", pred_angles), ("truth.csv", truth_angles)):
        save_dataset(d / name, Dataset(space, angles, space.stack([0.0] * len(angles))))
    return ["eval", "--pred", str(d / "pred.csv"), "--truth", str(d / "truth.csv"),
            "--space", str(d / "pred.csv.space.json"), "--out", str(d / "e.json")]


def _eval_across_dimensions(d):
    angles = np.linspace(-3.0, 3.0, 8)
    return (_eval(d, np.column_stack([angles, angles]), angles[:, None]),
            "pred.csv holds 8 rows of 2 angles, ")


def _eval_at_a_moved_angle(d):
    angles = np.linspace(-3.0, 3.0, 8).reshape(4, 2)
    moved = angles.copy()
    moved[2, 1] += 1e-6
    return _eval(d, angles, moved), "row 3 of "


def _eval_across_row_counts(d):
    angles = np.linspace(-3.0, 3.0, 8).reshape(4, 2)
    return _eval(d, angles, angles[:3]), "truth.csv 3 rows of 2"


def _write_into(out, args, d):
    """args with --out in a directory that does not exist, and the error it must print."""
    return args + ["--out", str(d / "missing" / out)], f"missing/{out}: No such file or directory"


def _fit_into_a_missing_directory(d):
    path, _ = write_scalar_dataset(d, np.arange(6.0))
    args = ["fit", "--data", str(path), "--estimator", "lc", "--bandwidth", "0.5,0.5",
            "--query", "0,0"]
    # the diagnostics are the first file fit writes
    return _write_into("o.csv", args, d)[0], "missing/o.csv.diag.json: No such file or directory"


def _cv_into_a_missing_directory(d):
    path, _ = write_scalar_dataset(d, np.arange(6.0))
    return _write_into("cv.json", ["cv", "--data", str(path), "--estimator", "lc",
                                   "--grid1", "0.5", "--k", "2"], d)


def _simulate_into_a_missing_directory(d):
    return _write_into("r.json", ["simulate", "--n", "15", "--reps", "1", "--quad", "10",
                                  "--grid1", "0.5", "--estimators", "lc"], d)


def _default_study_into_a_missing_directory(d):
    # the output is refused before the study (20 replications at its defaults) would run
    return _write_into("r.json", ["simulate"], d)


def _ingest_into_a_missing_directory(d):
    (d / "trips.csv").write_text("hour,day,doy_len,origin,dest\n3,10,365,1,2\n")
    return _write_into("net.csv", ["ingest-network", "--trips", str(d / "trips.csv"),
                                   "--k", "2"], d)


def _eval_into_a_missing_directory(d):
    args = _eval(d, np.zeros((2, 2)), np.zeros((2, 2)))[:-2]  # without its --out
    return _write_into("e.json", args, d)


def test_cv_laplacian_sidecar_larger_than_its_payloads_exits_2(tmp_path, runner):
    # the sidecar names k = 2000 nodes; the payloads are 3 x 3 Laplacians
    rows = ["theta_1,theta_2,response"]
    lap = '"[2,-1,-1,-1,2,-1,-1,-1,2]"'
    rows += [f"{0.1 * i},{-0.2 * i},{lap}" for i in range(6)]
    (tmp_path / "net.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "net.csv.space.json").write_text(
        '{"kind":"graph_laplacian","k":2000,"c_w":1}')
    result = runner.invoke(main, ["cv", "--data", str(tmp_path / "net.csv"),
                                  "--estimator", "lc", "--out", str(tmp_path / "cv.json")])
    assert result.exit_code == 2, result.output
    assert "2000x2000" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("case", [_malformed_object_response, _malformed_descriptor_field,
                                  _malformed_config_value, _missing_descriptor,
                                  _header_only_trips, _malformed_cv_bandwidth,
                                  _bool_cv_bandwidth, _string_cv_bandwidth, _null_cv_bandwidth,
                                  _non_finite_dataset_angle, _non_finite_query,
                                  _huge_descriptor_field, _fractional_sphere_p,
                                  _fractional_laplacian_k, _fractional_wasserstein_grid,
                                  _huge_config_value,
                                  _invalid_json_config, _non_object_config,
                                  _unknown_config_key, _invalid_json_cv_file,
                                  _over_long_response_cell, _over_long_trips_cell,
                                  _non_utf8_dataset, _non_utf8_trips, _negative_cv_bandwidth,
                                  _short_cv_bandwidth, _cv_file_for_another_estimator,
                                  _cv_file_for_another_kernel, _unsplit_config_grid,
                                  _eval_across_dimensions, _eval_at_a_moved_angle,
                                  _eval_across_row_counts, _fit_into_a_missing_directory,
                                  _cv_into_a_missing_directory,
                                  _simulate_into_a_missing_directory,
                                  _ingest_into_a_missing_directory,
                                  _eval_into_a_missing_directory,
                                  _default_study_into_a_missing_directory,
                                  _config_stage2_frac, _flag_stage2_frac_beside_a_config,
                                  _config_folds, _flag_folds_beside_a_config,
                                  _config_folds_beyond_the_data,
                                  _config_folds_where_the_default_fails_too, _config_kernel,
                                  _config_estimators, _flag_estimators_beside_a_config,
                                  _config_sample_size, _fit_with_a_missing_cv_file,
                                  _fit_with_a_missing_data_file, _cv_with_a_missing_config,
                                  _simulate_with_a_missing_config, _ingest_a_missing_trips_file,
                                  _eval_with_a_missing_space])
def test_malformed_input_exits_2_naming_the_culprit(tmp_path, runner, monkeypatch, case):
    def no_study(config):
        raise AssertionError("simulate ran its study before refusing its input")

    monkeypatch.setattr(cli, "run_study", no_study)  # no case here may run the study
    args, culprit = case(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert culprit in result.output
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=5)
_JUNK = (_JSON.map(json.dumps) | st.text(alphabet='0123456789.-+eEinfa,[]{}" x', max_size=8)
         | st.just(_LONG_CELL))
_DATA_ROW = st.tuples(st.floats(-4.0, 4.0).map(repr), st.floats(-4.0, 4.0).map(repr),
                      st.floats(-9.0, 9.0).map(json.dumps))
_TRIP_ROW = st.tuples(st.integers(0, 23), st.integers(1, 365), st.just(365),
                      st.integers(1, 3), st.integers(1, 3)).map(lambda r: [str(v) for v in r])


@st.composite
def _csv_rows(draw, valid_row):
    """Well-formed rows, about half the time with one cell replaced by junk or one row cut."""
    rows = [list(r) for r in draw(st.lists(valid_row, max_size=8))]
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        if draw(st.booleans()):
            rows[i][j] = draw(_JUNK)
        else:
            del rows[i][j:]
    return rows


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=_csv_rows(_DATA_ROW), trips=_csv_rows(_TRIP_ROW),
       sidecar=st.none() | st.just('{"kind":"scalar","lo":-10,"hi":10}') | _JUNK)
def test_fuzzed_files_exit_0_or_2(rows, trips, sidecar):
    """Fuzzed dataset, descriptor and trips files: every call exits 0 or 2, no traceback."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_rows(d / "data.csv", ["theta_1", "theta_2", "response"], rows)
        if sidecar is not None:
            (d / "data.csv.space.json").write_text(sidecar)
        _write_rows(d / "trips.csv", ["hour", "day", "doy_len", "origin", "dest"], trips)
        calls = [["fit", "--data", str(d / "data.csv"), "--estimator", "lc",
                  "--bandwidth", "0.5,0.5", "--query", "0,0", "--out", str(d / "o.csv")],
                 ["cv", "--data", str(d / "data.csv"), "--estimator", "lc", "--grid1", "0.5",
                  "--k", "2", "--out", str(d / "cv.json")],
                 ["ingest-network", "--trips", str(d / "trips.csv"), "--k", "3",
                  "--out", str(d / "net.csv")],
                 ["cv", "--data", str(d / "net.csv"), "--estimator", "lc", "--grid1", "0.5",
                  "--k", "2", "--out", str(d / "cv_net.json")]]
        for args in calls:
            if args[0] == "cv" and not Path(args[2]).exists():
                continue  # ingest-network refused the trips
            result = runner.invoke(main, args)
            assert result.exit_code in (0, 2), (args[0], result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (args[0], result.exception)


def test_simulate_smoke_and_determinism(tmp_path, runner):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["simulate", "--n", "15", "--sigma", "0.2", "--reps", "1", "--seed", "5",
            "--quad", "10", "--grid1", "0.5,0.9"]
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    assert r1.exit_code == 0, r1.output
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    blob = json.loads(out1.read_text())
    assert set(blob["mise"]) == {"lc", "ll"}
    assert "wall_clock_s" not in blob


def test_simulate_checks_its_output_directory_without_leaving_a_file(tmp_path, runner,
                                                                    monkeypatch):
    def failed_study(config):
        raise NumericalError("the study failed")

    monkeypatch.setattr(cli, "run_study", failed_study)
    result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 3, result.output
    assert list(tmp_path.iterdir()) == []


def test_help_lists_flags(runner):
    for cmd in ("fit", "cv", "simulate", "ingest-network", "eval"):
        result = runner.invoke(main, [cmd, "--help"])
        assert result.exit_code == 0
        assert "--out" in result.output
