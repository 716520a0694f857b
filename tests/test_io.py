import csv
import json
import math

import numpy as np
import pytest

from torfrech.errors import DatasetFormatError, EmptyDatasetError, PayloadError
from torfrech.frechet import Dataset
from torfrech.io import (
    encode_time_to_torus,
    load_dataset,
    read_trips,
    save_dataset,
    trips_to_dataset,
)
from torfrech.metric import (
    GraphLaplacianSpace,
    ResponseSpace,
    ScalarSpace,
    SphereSpace,
    WassersteinSpace,
)


def make_dataset(space, payloads, rng):
    angles = rng.uniform(-math.pi, math.pi, size=(len(payloads), 2))
    return Dataset(space, angles, space.stack(payloads))


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


def _write_cells(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["theta_1", "response"]] + rows)


def _lone_row_error(space, cell):
    """(type, message) of reading one response cell on its own, as a row of one."""
    try:
        space.validate(json.loads(cell))
    except json.JSONDecodeError as exc:
        return DatasetFormatError, f"response is not valid JSON ({exc})"
    except PayloadError as exc:
        return PayloadError, str(exc)
    raise AssertionError(f"{cell!r} is a valid payload")


@pytest.mark.parametrize("space,cells,bad_row", [
    (ScalarSpace(-5, 5), ["1.0", "2.0", "1,2", "3.0"], 3),  # two values in one cell
    (ScalarSpace(-5, 5), ["1.0", "", "2.0"], 2),  # an empty response
    # unbalanced brackets whose joined parse still gives one unit vector a row
    (SphereSpace(1), ["[1,0]", "[0", "1]", "[0,1],[1,0]"], 2),
    (SphereSpace(2), ["[1,0,0]", "[0,0,1]", "[0,1]", "[0,1,0]"], 3),  # a ragged row
    (ScalarSpace(-5, 5), ["1.0", '{"a": 1}', "2.0"], 2),  # a dict
    (ScalarSpace(-5, 5), ["1.0", "2.0", "null"], 3),  # null reads as NaN
    (GraphLaplacianSpace(2, 1.0), ["[1,-1,-1,1]", "[[1,-1],[-1,1]]", "[[1,-1],[1,-1]]"], 3),
])
def test_joined_response_parse_names_the_first_bad_row(tmp_path, space, cells, bad_row):
    """The response column is parsed and checked as a whole; a bad file still names
    its first bad row with the message that row gives on its own."""
    path = tmp_path / "d.csv"
    _write_cells(path, [[repr(0.1 * i), cell] for i, cell in enumerate(cells)])
    error, message = _lone_row_error(space, cells[bad_row - 1])
    with pytest.raises(error) as info:
        load_dataset(path, space=space)
    assert str(info.value) == f"{path} row {bad_row}: {message}"


def test_first_bad_row_wins_across_kinds_of_fault(tmp_path):
    """A bad payload in row 2 is reported before a bad field count in row 5, and
    the other way round, as a row-by-row read meets them."""
    space = SphereSpace(2)
    rows = [["0.1", "[1,0,0]"], ["0.2", "[1,1,0]"], ["0.3", "[0,1,0]"], ["0.4", "[0,0,1]"],
            ["0.5"]]
    path = tmp_path / "d.csv"
    _write_cells(path, rows)
    with pytest.raises(PayloadError) as info:
        load_dataset(path, space=space)
    assert str(info.value).startswith(f"{path} row 2: sphere payload must have unit norm")
    rows[1], rows[4] = ["0.2"], ["0.5", "[1,1,0]"]
    _write_cells(path, rows)
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(path, space=space)
    assert str(info.value) == f"{path} row 2: expected 2 fields, got 1"


def _laplacian_with_zero_edges(rng):
    # zero edge weights give -0.0 off the diagonal, which a save must keep
    w = rng.uniform(0.0, 2.0, size=6) * (rng.uniform(size=6) < 0.5)
    return GraphLaplacianSpace(4, 2.0).edge_weights_to_laplacian(w)


@pytest.mark.parametrize("space,maker", [
    (ScalarSpace(-5, 5), lambda rng: float(rng.uniform(-4, 4))),
    (SphereSpace(2), lambda rng: (lambda v: v / np.linalg.norm(v))(rng.standard_normal(3))),
    (WassersteinSpace(6, 0.0, 1.0), lambda rng: np.sort(rng.uniform(0, 1, 6))),
    (GraphLaplacianSpace(4, 2.0), _laplacian_with_zero_edges),
])
def test_save_load_save_is_byte_identical(tmp_path, space, maker):
    """Each row is the angles' repr and payload_to_json's compact JSON, and a file
    saved from a loaded one is the same bytes."""
    rng = np.random.default_rng(66)
    data = make_dataset(space, [maker(rng) for _ in range(60)], rng)
    save_dataset(tmp_path / "a.csv", data)
    save_dataset(tmp_path / "b.csv", load_dataset(tmp_path / "a.csv"))
    for suffix in ("", ".space.json"):
        assert (tmp_path / f"a.csv{suffix}").read_bytes() == \
            (tmp_path / f"b.csv{suffix}").read_bytes()
    with open(tmp_path / "a.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[repr(float(a)) for a in angles] +
                    [json.dumps(space.payload_to_json(p), separators=(",", ":"))]
                    for angles, p in zip(data.angles, data.responses)]
    if isinstance(space, GraphLaplacianSpace):
        assert "-0.0" in (tmp_path / "a.csv").read_text()


def test_load_and_save_check_the_responses_as_one_stack(tmp_path, monkeypatch):
    calls = []
    stack = ResponseSpace.stack

    def counted(self, payloads):
        calls.append(len(payloads))
        return stack(self, payloads)

    monkeypatch.setattr(ResponseSpace, "stack", counted)
    rng = np.random.default_rng(67)
    space = WassersteinSpace(5, 0.0, 1.0)
    data = Dataset(space, rng.uniform(-3, 3, size=(40, 2)),
                   np.sort(rng.uniform(0, 1, size=(40, 5)), axis=1))
    save_dataset(tmp_path / "d.csv", data)
    load_dataset(tmp_path / "d.csv")
    assert calls == [40, 40]


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
    trips = [(3, 10, 365, 1, 2), (3, 10, 365, 2, 1), (3, 10, 365, 1, 2)]
    data = trips_to_dataset(trips, 2)
    assert data.n == 1
    assert np.array_equal(data.responses[0], [[3.0, -3.0], [-3.0, 3.0]])
    assert data.space.c_w == 3.0
    expected = encode_time_to_torus(3, 10, 365)
    assert np.allclose(data.angles[0], expected.angles)


def test_trips_to_dataset_self_loops_dropped():
    trips = [(0, 1, 365, 1, 1), (0, 1, 365, 2, 2)]
    data = trips_to_dataset(trips, 2)
    assert data.n == 1
    assert np.array_equal(data.responses[0], np.zeros((2, 2)))  # empty graph is valid
    assert data.space.c_w == 1.0


def test_trips_to_dataset_clipping():
    trips = [(1, 2, 365, 1, 2)] * 8
    data = trips_to_dataset(trips, 2, c_w=5.0)
    assert data.space.c_w == 5.0
    assert np.array_equal(data.responses[0], [[5.0, -5.0], [-5.0, 5.0]])


@pytest.mark.parametrize("c_w", [None, 2.0])
def test_trips_to_dataset_matches_per_trip_reference(c_w):
    # repeated groups across both year lengths, both directions and self-loops, with
    # the first and last hour and day of each year length among the keys
    rng = np.random.default_rng(63)
    k = 5
    keys = [(int(rng.integers(0, 24)), int(rng.integers(1, 366)), int(rng.choice([365, 366])))
            for _ in range(7)] + [(0, 1, 365), (23, 365, 365), (0, 1, 366), (23, 366, 366)]
    trips = [(*keys[rng.integers(len(keys))], int(rng.integers(1, k + 1)),
              int(rng.integers(1, k + 1))) for _ in range(300)]
    counts = {}
    for hour, day, doy_len, origin, dest in trips:
        a = counts.setdefault((doy_len, day, hour), np.zeros((k, k)))
        if origin != dest:
            a[origin - 1, dest - 1] += 1.0
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
    trips = [(int(rng.integers(0, 24)), int(rng.integers(1, 366)), 365,
              int(rng.integers(1, 14)), int(rng.integers(1, 14)))
             for _ in range(1000)]
    data = trips_to_dataset(trips, 13)
    for i in range(data.n):
        data.space.validate(data.responses[i])


def test_read_trips_validation(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text("hour,day,doy_len,origin,dest\n3,10,365,1,2\n")
    trips = read_trips(path, 2)
    assert trips.dtype == np.int64 and trips.tolist() == [[3, 10, 365, 1, 2]]
    path.write_text("hour,day,doy_len,origin,dest\n25,10,365,1,2\n")
    with pytest.raises(DatasetFormatError, match="row 1"):
        read_trips(path, 2)
    path.write_text("hour,day,doy_len,origin,dest\n3,10,365,1,9\n")
    with pytest.raises(DatasetFormatError, match="row 1"):
        read_trips(path, 2)
    path.write_text("bad,header\n")
    with pytest.raises(DatasetFormatError, match="header"):
        read_trips(path, 2)


@pytest.mark.parametrize("bad, shown", [((3.7, 10, 365, 1, 2), "3.7"),
                                        ((True, 10, 365, 1, 2), "True"),
                                        ((3, 10, np.bool_(True), 1, 2), "True"),
                                        ((3, 10, 365, 1, np.float64(2.5)), "2.5"),
                                        ((float("inf"), 10, 365, 1, 2), "inf")])
def test_a_library_trip_value_that_is_not_whole_is_refused(bad, shown):
    # int() would truncate a fraction and take a bool as 1
    with pytest.raises(ValueError) as err:
        trips_to_dataset([(3, 10, 365, 1, 2), bad], 3)
    assert str(err.value) == f"trip values must be whole numbers, got {shown}"


def test_encode_time_refuses_a_value_that_is_not_whole():
    for args, shown in (((3.7, 10, 365), "3.7"), ((True, 10, 365), "True"),
                        ((3, 10, 365.5), "365.5")):
        with pytest.raises(ValueError) as err:
            encode_time_to_torus(*args)
        assert str(err.value) == f"trip values must be whole numbers, got {shown}"


def test_library_trip_arrays_are_taken_by_value():
    whole = trips_to_dataset([(3, 10, 365, 1, 2)], 3)
    for trips in (np.array([[3, 10, 365, 1, 2]]), np.array([[3.0, 10.0, 365.0, 1.0, 2.0]])):
        assert np.array_equal(trips_to_dataset(trips, 3).angles, whole.angles)
    with pytest.raises(ValueError, match="whole numbers, got 3.7"):
        trips_to_dataset(np.array([[3.7, 10, 365, 1, 2]]), 3)
    with pytest.raises(ValueError, match="whole numbers, got True"):
        trips_to_dataset(np.ones((1, 5), dtype=bool), 3)


def test_read_trips_refuses_one_region_before_reading_a_row(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text("hour,day,doy_len,origin,dest\n3,10,365,1,2\n")
    for missing_or_good in (tmp_path / "missing.csv", path):
        with pytest.raises(ValueError) as err:
            read_trips(missing_or_good, 1)
        assert str(err.value) == "need at least 2 regions"


def test_a_missing_file_is_a_format_error_naming_it(tmp_path):
    path = tmp_path / "missing.csv"
    message = f"{path}: No such file or directory"
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path, space=ScalarSpace(0, 1))
    assert str(err.value) == message
    with pytest.raises(DatasetFormatError) as err:
        read_trips(path, 2)
    assert str(err.value) == message


_GOOD_TRIP = ["3", "10", "365", "1", "2"]
_BAD_TRIPS = {  # (row, the message it gets when read alone, at k = 3 regions)
    "non-integer": (["3", "x", "365", "1", "2"], "invalid literal for int() with base 10: 'x'"),
    "short": (["3", "10", "365", "1"], "expected 5 fields, got 4"),
    "long": (["3", "10", "365", "1", "2", "2"], "expected 5 fields, got 6"),
    # the cells are converted before the fields are counted
    "short, non-integer": (["3", "1.5", "365", "1"],
                           "invalid literal for int() with base 10: '1.5'"),
    "doy_len 364": (["3", "10", "364", "1", "2"],
                    "day-of-year length must be 365 or 366, got 364"),
    "hour 24": (["24", "10", "365", "1", "2"], "hour must be in 0..23, got 24"),
    "day 366 of 365": (["3", "366", "365", "1", "2"], "day must be in 1..365, got 366"),
    "region 0": (["3", "10", "365", "1", "0"], "region indices are 1-based"),
    "region k + 1": (["3", "10", "365", "4", "2"], "region index out of range 1..3"),
    "beyond int64": (["3", str(2 ** 63), "365", "1", "2"], f"day must be in 1..365, got {2 ** 63}"),
}


@pytest.mark.parametrize("fault", list(_BAD_TRIPS))
@pytest.mark.parametrize("position", [1, 4])
@pytest.mark.parametrize("then_other_faults", [True, False])
def test_read_trips_names_the_first_bad_row(tmp_path, fault, position, then_other_faults):
    bad, message = _BAD_TRIPS[fault]
    path = tmp_path / "trips.csv"

    def write(rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["hour", "day", "doy_len", "origin", "dest"]] + rows)

    write([bad])
    with pytest.raises(DatasetFormatError) as alone:
        read_trips(path, 3)
    assert str(alone.value) == f"{path} row 1: {message}"
    with pytest.raises(ValueError) as batch:  # library rows get the same checks
        trips_to_dataset([bad], 3)
    assert str(batch.value) == message
    # the rows after it, each with another fault, include ones whose column the
    # batch checks first; without them the bad row is the last
    after = [row for other, (row, _) in _BAD_TRIPS.items() if other != fault]
    write([_GOOD_TRIP] * (position - 1) + [bad] + (after if then_other_faults else []))
    with pytest.raises(DatasetFormatError) as first:
        read_trips(path, 3)
    assert str(first.value) == f"{path} row {position}: {message}"


def test_descriptor_sidecar(tmp_path):
    rng = np.random.default_rng(62)
    data = make_dataset(ScalarSpace(-5, 5), [1.0, 2.0], rng)
    path = tmp_path / "d.csv"
    save_dataset(path, data)
    sidecar = json.loads((tmp_path / "d.csv.space.json").read_text())
    assert sidecar == {"kind": "scalar", "lo": -5.0, "hi": 5.0}
