"""Dataset files and the trip-record ingestion pipeline.

Datasets are CSV files with columns theta_1..theta_d holding predictor
angles and a final `response` column holding the JSON-encoded payload; the
response space travels in a JSON sidecar descriptor. Floats are written with
repr so a save/load round trip is lossless.

Trip records (hour of day, day of year, origin/destination region) aggregate
into one graph Laplacian per (hour, day) group: per-group symmetric counts of
trips between region pairs in either direction, self-loops dropped, clipped
at the edge-weight cap.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from collections import defaultdict

import numpy as np

from .errors import DatasetFormatError, EmptyDatasetError, PayloadError
from .frechet import Dataset
from .metric import GraphLaplacianSpace, ResponseSpace, space_from_json
from .torus import TorusPoint


def default_descriptor_path(csv_path: str) -> str:
    return str(csv_path) + ".space.json"


def save_dataset(path, dataset: Dataset, descriptor_path=None) -> None:
    """Write the CSV rows and the space descriptor sidecar."""
    if descriptor_path is None:
        descriptor_path = default_descriptor_path(path)
    space = dataset.space
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{i + 1}" for i in range(dataset.dim)] + ["response"])
        for i in range(dataset.n):
            row = [repr(float(a)) for a in dataset.angles[i]]
            payload = space.payload_to_json(dataset.responses[i])
            row.append(json.dumps(payload, separators=(",", ":")))
            writer.writerow(row)
    with open(descriptor_path, "w") as fh:
        json.dump(space.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_space(descriptor_path) -> ResponseSpace:
    """Read a space descriptor; any failure is a DatasetFormatError naming the file."""
    try:
        with open(descriptor_path) as fh:
            return space_from_json(json.load(fh))
    except OSError as exc:
        raise DatasetFormatError(
            f"{descriptor_path}: cannot read the space descriptor ({exc.strerror})") from None
    except ValueError as exc:  # invalid JSON or an invalid descriptor
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
                payloads.append(space.payload_from_json(json.loads(row[-1])))
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(
                    f"{path} row {rownum}: response is not valid JSON ({exc})") from None
            except PayloadError as exc:
                raise PayloadError(f"{path} row {rownum}: {exc}") from None
    if not angles:
        raise EmptyDatasetError(f"{path}: no data rows")
    # payload_from_json has validated every payload already
    return Dataset(space, np.asarray(angles), np.stack(payloads))


@dataclass(frozen=True)
class TripRecord:
    """One trip: timestamp components plus origin/destination regions (1-based)."""

    hour: int
    day: int
    doy_len: int
    origin: int
    dest: int

    def __post_init__(self):
        if self.doy_len not in (365, 366):
            raise ValueError(f"day-of-year length must be 365 or 366, got {self.doy_len}")
        if not 0 <= self.hour <= 23:
            raise ValueError(f"hour must be in 0..23, got {self.hour}")
        if not 1 <= self.day <= self.doy_len:
            raise ValueError(f"day must be in 1..{self.doy_len}, got {self.day}")
        if self.origin < 1 or self.dest < 1:
            raise ValueError("region indices are 1-based")


TRIPS_HEADER = ["hour", "day", "doy_len", "origin", "dest"]


def read_trips(path, n_nodes: int) -> list:
    """Parse a trips CSV (header hour,day,doy_len,origin,dest)."""
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
    return trips


def encode_time_to_torus(i1: int, i2: int, doy_len: int) -> TorusPoint:
    """Map (hour of day, day of year) to the 2-torus.

    Angles are 2*pi*(i1 + 0.5)/24 and 2*pi*(i2 - 0.5)/D, canonicalized.
    """
    if doy_len not in (365, 366):
        raise ValueError(f"day-of-year length must be 365 or 366, got {doy_len}")
    if not 0 <= int(i1) <= 23:
        raise ValueError(f"hour must be in 0..23, got {i1}")
    if not 1 <= int(i2) <= doy_len:
        raise ValueError(f"day must be in 1..{doy_len}, got {i2}")
    return TorusPoint([2.0 * math.pi * (i1 + 0.5) / 24.0,
                       2.0 * math.pi * (i2 - 0.5) / doy_len])


def build_laplacians(trips, n_nodes: int, c_w: float | None = None):
    """Aggregate trips into one (torus point, graph Laplacian) pair per group.

    Groups are (hour, day, doy_len); within a group the undirected edge count
    sums trips in both directions, drops self-loops, and is clipped at c_w.
    When c_w is None the maximum observed count is used (no clipping).
    Returns (pairs sorted by group key, effective c_w).
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 regions")
    groups = defaultdict(lambda: np.zeros((n_nodes, n_nodes)))
    for rec in trips:
        counts = groups[(rec.doy_len, rec.day, rec.hour)]
        if rec.origin == rec.dest:
            continue  # no self-loops, but the group still exists (empty graph)
        counts[rec.origin - 1, rec.dest - 1] += 1.0
    weights = {key: counts + counts.T for key, counts in groups.items()}
    if c_w is None:
        observed = max((float(w.max()) for w in weights.values()), default=0.0)
        c_w = observed if observed > 0.0 else 1.0
    space = GraphLaplacianSpace(n_nodes, c_w)
    pairs = []
    for key in sorted(weights):
        doy_len, day, hour = key
        lap = space.edge_weights_to_laplacian(np.clip(weights[key][space._iu], 0.0, c_w))
        pairs.append((encode_time_to_torus(hour, day, doy_len), lap))
    return pairs, float(c_w)


def trips_to_dataset(trips, n_nodes: int, c_w: float | None = None) -> Dataset:
    """build_laplacians wrapped into a Dataset with the matching space."""
    pairs, cap = build_laplacians(trips, n_nodes, c_w)
    if not pairs:
        raise EmptyDatasetError("no trip groups to aggregate")
    space = GraphLaplacianSpace(n_nodes, cap)
    return Dataset.from_payloads(space, [p for p, _ in pairs], [l for _, l in pairs])
