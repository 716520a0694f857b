import json
import math

import numpy as np
import pytest

from torfrech.errors import DatasetFormatError, EmptyDatasetError, PayloadError
from torfrech.frechet import Dataset
from torfrech.io import (
    TripRecord,
    encode_time_to_torus,
    load_dataset,
    read_trips,
    save_dataset,
    trips_to_dataset,
)
from torfrech.metric import (
    GraphLaplacianSpace,
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
)
from torfrech.torus import TorusPoint


def make_dataset(space, payloads, rng):
    angles = rng.uniform(-math.pi, math.pi, size=(len(payloads), 2))
    return Dataset.from_payloads(space, [TorusPoint(a) for a in angles], payloads)


@pytest.mark.parametrize("space,maker", [
    (ScalarSpace(-5, 5), lambda rng: float(rng.uniform(-4, 4))),
    (SphereSpace(2), lambda rng: (lambda v: v / np.linalg.norm(v))(rng.standard_normal(3))),
    (WassersteinSpace(6, 0.0, 1.0), lambda rng: np.sort(rng.uniform(0, 1, 6))),
    (GraphLaplacianSpace(3, 4.0),
     lambda rng: GraphLaplacianSpace(3, 4.0).edge_weights_to_laplacian(
         rng.uniform(0, 4, 3))),
])
def test_round_trip_all_payload_kinds(tmp_path, space, maker):
    rng = np.random.default_rng(60)
    data = make_dataset(space, [maker(rng) for _ in range(100)], rng)
    path = tmp_path / "data.csv"
    save_dataset(path, data)
    loaded = load_dataset(path)
    assert loaded.space.to_json() == space.to_json()
    assert np.array_equal(loaded.angles, data.angles)
    assert np.array_equal(loaded.responses, data.responses)


def test_load_dataset_reports_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_1,response\n0.1,\"[0.5,0.4,0.6]\"\n")
    with pytest.raises(PayloadError, match="row 1"):
        load_dataset(path, space=WassersteinSpace(3, 0.0, 1.0))
    path.write_text("theta_1,response\nnope,\"1.0\"\n")
    with pytest.raises(DatasetFormatError, match="row 1"):
        load_dataset(path, space=ScalarSpace(0, 1))
    path.write_text("theta_1,response\n0.1,\"{notjson\"\n")
    with pytest.raises(DatasetFormatError, match="row 1"):
        load_dataset(path, space=ScalarSpace(0, 1))


def test_load_dataset_empty_and_header_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path, space=ScalarSpace(0, 1))
    path.write_text("theta_1,response\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path, space=ScalarSpace(0, 1))
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(path, space=ScalarSpace(0, 1))


def test_encode_time_examples():
    p = encode_time_to_torus(0, 100, 365)
    assert p.angles[0] == pytest.approx(math.pi / 24)
    assert math.cos(p.angles[0]) == pytest.approx(0.991445, abs=1e-6)
    assert encode_time_to_torus(5, 1, 365).angles[1] == pytest.approx(math.pi / 365)
    # hour 12 wraps past pi into the canonical interval
    q = encode_time_to_torus(12, 1, 365)
    assert -math.pi <= q.angles[0] < math.pi
    assert q.angles[0] == pytest.approx(2 * math.pi * 12.5 / 24 - 2 * math.pi)


def test_encode_time_validation():
    with pytest.raises(ValueError):
        encode_time_to_torus(24, 1, 365)
    with pytest.raises(ValueError):
        encode_time_to_torus(0, 0, 365)
    with pytest.raises(ValueError):
        encode_time_to_torus(0, 366, 365)
    with pytest.raises(ValueError):
        encode_time_to_torus(0, 1, 364)


def test_encode_time_injective():
    seen = set()
    for doy_len in (365, 366):
        seen.clear()
        for i1 in range(24):
            for i2 in range(1, doy_len + 1):
                p = encode_time_to_torus(i1, i2, doy_len)
                key = (round(p.angles[0], 12), round(p.angles[1], 12))
                assert key not in seen
                seen.add(key)


def test_trips_to_dataset_examples():
    trips = [TripRecord(3, 10, 365, 1, 2), TripRecord(3, 10, 365, 2, 1),
             TripRecord(3, 10, 365, 1, 2)]
    data = trips_to_dataset(trips, 2)
    assert data.n == 1
    assert np.array_equal(data.responses[0], [[3.0, -3.0], [-3.0, 3.0]])
    assert data.space.c_w == 3.0
    expected = encode_time_to_torus(3, 10, 365)
    assert np.allclose(data.angles[0], expected.angles)


def test_trips_to_dataset_self_loops_dropped():
    trips = [TripRecord(0, 1, 365, 1, 1), TripRecord(0, 1, 365, 2, 2)]
    data = trips_to_dataset(trips, 2)
    assert data.n == 1
    assert np.array_equal(data.responses[0], np.zeros((2, 2)))  # empty graph is valid
    assert data.space.c_w == 1.0


def test_trips_to_dataset_clipping():
    trips = [TripRecord(1, 2, 365, 1, 2)] * 8
    data = trips_to_dataset(trips, 2, c_w=5.0)
    assert data.space.c_w == 5.0
    assert np.array_equal(data.responses[0], [[5.0, -5.0], [-5.0, 5.0]])


@pytest.mark.parametrize("c_w", [None, 2.0])
def test_trips_to_dataset_matches_per_trip_reference(c_w):
    # repeated groups across both year lengths, both directions and self-loops
    rng = np.random.default_rng(63)
    k = 5
    keys = [(int(rng.integers(0, 24)), int(rng.integers(1, 366)), int(rng.choice([365, 366])))
            for _ in range(7)]
    trips = [TripRecord(*keys[rng.integers(len(keys))], int(rng.integers(1, k + 1)),
                        int(rng.integers(1, k + 1))) for _ in range(300)]
    counts = {}
    for rec in trips:
        a = counts.setdefault((rec.doy_len, rec.day, rec.hour), np.zeros((k, k)))
        if rec.origin != rec.dest:
            a[rec.origin - 1, rec.dest - 1] += 1.0
    observed = max(float((a + a.T).max()) for a in counts.values())
    assert observed > 2.0  # so the cap c_w = 2 clips some edges
    cap = observed if c_w is None else c_w
    data = trips_to_dataset(trips, k, c_w)
    assert data.space.c_w == cap
    assert data.n == len(counts) == len(set(keys))
    for i, (doy_len, day, hour) in enumerate(sorted(counts)):
        a = counts[doy_len, day, hour]
        w = np.minimum(a + a.T, cap)
        assert np.array_equal(data.responses[i], np.diag(w.sum(axis=1)) - w)
        assert np.array_equal(data.angles[i], encode_time_to_torus(hour, day, doy_len).angles)


def test_trips_to_dataset_outputs_validate():
    rng = np.random.default_rng(61)
    trips = [TripRecord(int(rng.integers(0, 24)), int(rng.integers(1, 366)), 365,
                        int(rng.integers(1, 14)), int(rng.integers(1, 14)))
             for _ in range(1000)]
    data = trips_to_dataset(trips, 13)
    for i in range(data.n):
        data.space.validate(data.responses[i])


def test_read_trips_validation(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text("hour,day,doy_len,origin,dest\n3,10,365,1,2\n")
    trips = read_trips(path, 2)
    assert trips == [TripRecord(3, 10, 365, 1, 2)]
    path.write_text("hour,day,doy_len,origin,dest\n25,10,365,1,2\n")
    with pytest.raises(DatasetFormatError, match="row 1"):
        read_trips(path, 2)
    path.write_text("hour,day,doy_len,origin,dest\n3,10,365,1,9\n")
    with pytest.raises(DatasetFormatError, match="row 1"):
        read_trips(path, 2)
    path.write_text("bad,header\n")
    with pytest.raises(DatasetFormatError, match="header"):
        read_trips(path, 2)


def test_descriptor_sidecar(tmp_path):
    rng = np.random.default_rng(62)
    data = make_dataset(ScalarSpace(-5, 5), [1.0, 2.0], rng)
    path = tmp_path / "d.csv"
    save_dataset(path, data)
    sidecar = json.loads((tmp_path / "d.csv.space.json").read_text())
    assert sidecar == {"kind": "scalar", "lo": -5.0, "hi": 5.0}
