"""Dataset files and the trip-record ingestion pipeline.

Datasets are CSV files with columns theta_1..theta_d holding predictor
angles and a final `response` column holding the JSON-encoded payload; the
response space travels in a JSON sidecar descriptor. Floats are written with
repr so a save/load round trip is lossless.

Trip records (hour of day, day of year, origin/destination region) aggregate
in `trips_to_dataset` into a graph-Laplacian Dataset, one row per (hour, day)
group in sorted key order: per-group symmetric counts of trips between region
pairs in either direction, self-loops dropped, clipped at the edge-weight cap,
built in one batch under a single GraphLaplacianSpace. A trips file without
rows is an EmptyDatasetError, like a dataset file without rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, EmptyDatasetError, PayloadError
from .frechet import Dataset
from .metric import GraphLaplacianSpace, ResponseSpace, space_from_json
from .torus import TorusPoint


def write_json(path, obj) -> None:
    """Write a JSON file: sorted keys, indent 2, trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def default_descriptor_path(csv_path: str) -> str:
    return str(csv_path) + ".space.json"


def save_dataset(path, dataset: Dataset) -> None:
    """Write the CSV rows and the space descriptor sidecar."""
    space = dataset.space
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{i + 1}" for i in range(dataset.dim)] + ["response"])
        for i in range(dataset.n):
            row = [repr(float(a)) for a in dataset.angles[i]]
            payload = space.payload_to_json(dataset.responses[i])
            row.append(json.dumps(payload, separators=(",", ":")))
            writer.writerow(row)
    write_json(default_descriptor_path(path), space.to_json())


def read_json(path, what: str):
    """Parse a JSON file; a file that cannot be read or parsed is a
    DatasetFormatError naming the file and what it was meant to hold."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read the {what} ({exc.strerror})") from None
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise DatasetFormatError(f"{path}: the {what} is not valid JSON ({exc})") from None


def load_space(descriptor_path) -> ResponseSpace:
    """Read a space descriptor; any failure is a DatasetFormatError naming the file."""
    obj = read_json(descriptor_path, "space descriptor")
    try:
        return space_from_json(obj)
    except ValueError as exc:
        raise DatasetFormatError(f"{descriptor_path}: {exc}") from None


def load_dataset(path, space: ResponseSpace | None = None,
                 descriptor_path=None) -> Dataset:
    """Read a dataset CSV; the space comes from `space` or the descriptor sidecar.

    Parse and payload errors name the offending data row (1-based).
    """
    if space is None:
        space = load_space(descriptor_path or default_descriptor_path(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        if len(header) < 2 or header[-1] != "response" or \
                header[:-1] != [f"theta_{i + 1}" for i in range(len(header) - 1)]:
            raise DatasetFormatError(
                f"{path}: header must be theta_1..theta_d,response; got {header}")
        dim = len(header) - 1
        angles = []
        payloads = []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != dim + 1:
                raise DatasetFormatError(
                    f"{path} row {rownum}: expected {dim + 1} fields, got {len(row)}")
            try:
                angles.append([float(v) for v in row[:-1]])
            except ValueError:
                raise DatasetFormatError(
                    f"{path} row {rownum}: non-numeric angle in {row[:-1]}") from None
            if not all(map(math.isfinite, angles[-1])):
                raise DatasetFormatError(f"{path} row {rownum}: non-finite angle in {row[:-1]}")
            try:
                payloads.append(space.validate(json.loads(row[-1])))
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(
                    f"{path} row {rownum}: response is not valid JSON ({exc})") from None
            except PayloadError as exc:
                raise PayloadError(f"{path} row {rownum}: {exc}") from None
    if not angles:
        raise EmptyDatasetError(f"{path}: no data rows")
    # every payload is validated already
    return Dataset(space, np.asarray(angles), np.stack(payloads))


def _check_trip_time(hour, day, doy_len) -> None:
    if doy_len not in (365, 366):
        raise ValueError(f"day-of-year length must be 365 or 366, got {doy_len}")
    if not 0 <= int(hour) <= 23:
        raise ValueError(f"hour must be in 0..23, got {hour}")
    if not 1 <= int(day) <= doy_len:
        raise ValueError(f"day must be in 1..{doy_len}, got {day}")


@dataclass(frozen=True)
class TripRecord:
    """One trip: timestamp components plus origin/destination regions (1-based)."""

    hour: int
    day: int
    doy_len: int
    origin: int
    dest: int

    def __post_init__(self):
        _check_trip_time(self.hour, self.day, self.doy_len)
        if self.origin < 1 or self.dest < 1:
            raise ValueError("region indices are 1-based")


TRIPS_HEADER = ["hour", "day", "doy_len", "origin", "dest"]


def read_trips(path, n_nodes: int) -> list:
    """Parse a trips CSV (header hour,day,doy_len,origin,dest) with at least one row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        if header != TRIPS_HEADER:
            raise DatasetFormatError(
                f"{path}: header must be {','.join(TRIPS_HEADER)}; got {header}")
        trips = []
        for rownum, row in enumerate(reader, start=1):
            try:
                rec = TripRecord(*(int(v) for v in row))
            except (ValueError, TypeError) as exc:
                raise DatasetFormatError(f"{path} row {rownum}: {exc}") from None
            if rec.origin > n_nodes or rec.dest > n_nodes:
                raise DatasetFormatError(
                    f"{path} row {rownum}: region index out of range 1..{n_nodes}")
            trips.append(rec)
    if not trips:
        raise EmptyDatasetError(f"{path}: no trip rows")
    return trips


def encode_time_to_torus(i1: int, i2: int, doy_len: int) -> TorusPoint:
    """Map (hour of day, day of year) to the 2-torus.

    Angles are 2*pi*(i1 + 0.5)/24 and 2*pi*(i2 - 0.5)/D, canonicalized.
    """
    _check_trip_time(i1, i2, doy_len)
    return TorusPoint([2.0 * math.pi * (i1 + 0.5) / 24.0,
                       2.0 * math.pi * (i2 - 0.5) / doy_len])


def trips_to_dataset(trips, n_nodes: int, c_w: float | None = None) -> Dataset:
    """Aggregate trips into one graph Laplacian per (hour, day, doy_len) group.

    Within a group the undirected edge count sums trips in both directions,
    drops self-loops (a group of self-loops alone is the empty graph) and is
    clipped at c_w; when c_w is None the maximum observed count is used (no
    clipping). Rows follow the sorted group keys (doy_len, day, hour).
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 regions")
    rows = [((rec.doy_len, rec.day, rec.hour), rec.origin - 1, rec.dest - 1) for rec in trips]
    keys = sorted({key for key, _, _ in rows})
    if not keys:
        raise EmptyDatasetError("no trip groups to aggregate")
    group = {key: g for g, key in enumerate(keys)}
    counts = np.zeros((len(keys), n_nodes, n_nodes))
    np.add.at(counts, tuple(np.array([(group[key], o, d) for key, o, d in rows]).T), 1.0)
    iu, ju = np.triu_indices(n_nodes, 1)
    edges = counts[:, iu, ju] + counts[:, ju, iu]  # self-loops sit on the unread diagonal
    if c_w is None:
        c_w = float(edges.max()) or 1.0  # an edgeless sample still needs a positive cap
    space = GraphLaplacianSpace(n_nodes, c_w)
    angles = [encode_time_to_torus(hour, day, doy_len).angles for doy_len, day, hour in keys]
    return Dataset(space, np.array(angles),
                   space.edge_weights_to_laplacian(np.minimum(edges, space.c_w)))
