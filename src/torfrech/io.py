"""Dataset files and the trip-record ingestion pipeline.

Datasets are CSV files with columns theta_1..theta_d holding predictor angles
and a final `response` column holding the JSON-encoded payload; the response
space travels in a JSON sidecar descriptor. Floats are written with repr so a
save/load round trip is lossless. Trips are one (m, 5) int64 array of rows
(hour, day, doy_len, origin, dest); `trips_to_dataset` groups them by (doy_len,
day, hour), as one int64 key a row and one np.unique, into a graph-Laplacian
Dataset in sorted key order.

An error in reading or writing a file names it: every file here is opened under
`file_errors(path)`, which makes an OSError, ValueError or csv.Error (such as a cell
over csv's field size limit) a DatasetFormatError "<path>: <reason>". Dataset and
trips files share one reader, `_read_csv`, which checks all rows as one batch; if
that fails it checks them one by one, and the first to fail raises "<path> row <n>: ...".
"""

from __future__ import annotations

import contextlib
import csv
import json
import math

import numpy as np

from .errors import DatasetFormatError, EmptyDatasetError, TorfrechError
from .frechet import Dataset
from .metric import GraphLaplacianSpace, ResponseSpace, space_from_json


def write_json(path, obj) -> None:
    """Write a JSON file: sorted keys, indent 2, trailing newline."""
    with file_errors(path), open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def default_descriptor_path(csv_path: str) -> str:
    return str(csv_path) + ".space.json"


def save_dataset(path, dataset: Dataset) -> None:
    """Write the CSV rows, payloads as payload_to_json's compact JSON, and the sidecar."""
    stacked = dataset.space.stack(dataset.responses)
    # payload_to_json's compact JSON as json.dumps writes it: each finite float's repr
    flat, form = stacked.reshape(dataset.n, -1), "{}" if stacked.ndim == 1 else "[{}]"
    with file_errors(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{i + 1}" for i in range(dataset.dim)] + ["response"])
        writer.writerows([*map(repr, a), form.format(",".join(map(repr, p.tolist())))]
                         for a, p in zip(dataset.angles.tolist(), flat))
    write_json(default_descriptor_path(path), dataset.space.to_json())


def read_json(path):
    """Parse a JSON file under file_errors."""
    with file_errors(path), open(path) as fh:
        return json.load(fh)


@contextlib.contextmanager
def file_errors(path):
    """Raise what goes wrong reading or writing `path` (an OSError, ValueError or csv.Error)
    as DatasetFormatError "<path>: <strerror or message>"; package errors pass through."""
    try:
        yield
    except TorfrechError:
        raise
    except (OSError, ValueError, csv.Error) as exc:  # csv.Error: a cell over its size limit
        raise DatasetFormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def load_space(descriptor_path) -> ResponseSpace:
    """Read a space descriptor; any failure is a DatasetFormatError naming the file."""
    with file_errors(descriptor_path):
        return space_from_json(read_json(descriptor_path))


def _read_csv(path, header_ok, header_text: str, what: str, check):
    """check(header, rows) of a CSV file with at least one row below its header. Rows
    that fail as a batch are checked one by one: the first to fail names itself, as
    "<path> row <n>: <message>" (1-based), a DatasetFormatError unless a package error."""
    with file_errors(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDatasetError(f"{path}: file is empty")
        if not header_ok(header):
            raise ValueError(f"header must be {header_text}; got {header}")
        rows = list(reader)
        if not rows:
            raise EmptyDatasetError(f"{path}: no {what} rows")
        try:
            return check(header, rows)
        except ValueError:
            for rownum, row in enumerate(rows, start=1):
                try:
                    check(header, [row])
                except ValueError as exc:
                    error = type(exc) if isinstance(exc, TorfrechError) else DatasetFormatError
                    raise error(f"{path} row {rownum}: {exc}") from None
            raise


def _read_rows(rows: list, dim: int, space: ResponseSpace):
    """(angles, responses) of CSV rows, each check made once, with a lone row's messages."""
    if any(len(row) != dim + 1 for row in rows):
        raise DatasetFormatError(f"expected {dim + 1} fields, got {len(rows[0])}")
    try:
        angles = np.array([row[:-1] for row in rows], dtype=float)
    except ValueError:
        raise DatasetFormatError(f"non-numeric angle in {rows[0][:-1]}") from None
    if not np.isfinite(angles).all():
        raise DatasetFormatError(f"non-finite angle in {rows[0][:-1]}")
    # one parse of the joined cells unless one holds a string or unbalanced brackets
    cells = [row[-1] for row in rows]
    whole = len(cells) > 1 and not any('"' in c or c.count("[") != c.count("]") for c in cells)
    try:
        values = json.loads(f"[{','.join(cells)}]") if whole else [json.loads(c) for c in cells]
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"response is not valid JSON ({exc})") from None
    if len(values) != len(cells):  # joining commas are the array's own; "1,2" adds a value
        raise DatasetFormatError("the responses do not parse to one value a row")
    return angles, space.stack(values)


def load_dataset(path, space: ResponseSpace | None = None,
                 descriptor_path=None) -> Dataset:
    """Read a dataset CSV; the space comes from `space` or the descriptor sidecar.

    Parse and payload errors name the first bad data row (1-based).
    """
    if space is None:
        space = load_space(descriptor_path or default_descriptor_path(path))
    return Dataset(space, *_read_csv(
        path, lambda header: len(header) >= 2 and header == [
            *(f"theta_{i}" for i in range(1, len(header))), "response"],
        "theta_1..theta_d,response", "data",
        lambda header, rows: _read_rows(rows, len(header) - 1, space)))


TRIPS_HEADER = ["hour", "day", "doy_len", "origin", "dest"]


def _whole(value) -> int:
    """int() of a trip cell: text as int() reads it, a number only if whole (not inf
    or NaN) and not a bool, which int() would truncate (3.7 to 3) or take as 1."""
    if isinstance(value, str) or not (value % 1 or isinstance(value, (bool, np.bool_))):
        return int(value)  # text is tested first: it is every cell of a trips file
    raise ValueError(f"trip values must be whole numbers, got {value}")


def _checked_trips(rows, n_nodes: int) -> np.ndarray:
    """(m, 5) int64 trip rows (hour, day, doy_len, origin, dest) from _whole() of each cell,
    checked column by column in a lone row's order; a message quotes the first row failing.
    An (m, 5) int64 array (read_trips' own) is whole by type: it gets the range checks alone."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape[1:] == (5,):
        trips = rows
    else:
        if isinstance(rows, np.ndarray):  # Python numbers are read far faster than numpy's
            rows = rows.tolist()
        values = [list(map(_whole, row)) for row in rows]
        fields = next((len(row) for row in values if len(row) != len(TRIPS_HEADER)), None)
        if fields is not None:
            raise ValueError(f"expected {len(TRIPS_HEADER)} fields, got {fields}")
        try:
            trips = np.array(values, dtype=np.int64).reshape(-1, len(TRIPS_HEADER))
        except OverflowError:  # an int beyond int64 fails a range check as a Python int
            trips = np.array(values, dtype=object).reshape(-1, len(TRIPS_HEADER))
    hour, day, doy_len, regions = trips[:, 0], trips[:, 1], trips[:, 2], trips[:, 3:]
    for fails, message in (
            ((doy_len != 365) & (doy_len != 366),
             "day-of-year length must be 365 or 366, got {2}"),
            ((hour < 0) | (hour > 23), "hour must be in 0..23, got {0}"),
            ((day < 1) | (day > doy_len), "day must be in 1..{2}, got {1}"),
            ((regions < 1).any(axis=1), "region indices are 1-based"),
            ((regions > n_nodes).any(axis=1), f"region index out of range 1..{n_nodes}")):
        if fails.any():
            raise ValueError(message.format(*trips[np.argmax(fails)]))
    return trips


def read_trips(path, n_nodes: int) -> np.ndarray:
    """Parse a trips CSV (header hour,day,doy_len,origin,dest) with at least one row
    into its checked (m, 5) int64 array; errors name the first bad row (1-based)."""
    if n_nodes < 2:
        raise ValueError("need at least 2 regions")
    return _read_csv(path, lambda header: header == TRIPS_HEADER, ",".join(TRIPS_HEADER),
                     "trip", lambda header, rows: _checked_trips(rows, n_nodes))


def _time_angles(trips: np.ndarray) -> np.ndarray:
    """Unwrapped angles 2*pi*(hour + 0.5)/24, 2*pi*(day - 0.5)/doy_len of checked trip rows."""
    hour, day, doy_len = trips[:, :3].T
    return np.column_stack([2.0 * math.pi * (hour + 0.5) / 24.0,
                            2.0 * math.pi * (day - 0.5) / doy_len])


def trips_to_dataset(trips, n_nodes: int, c_w: float | None = None) -> Dataset:
    """Aggregate integer trip rows (hour, day, doy_len, origin, dest), checked as
    read_trips checks them, into one graph Laplacian per (hour, day, doy_len) group.

    Within a group the undirected edge count sums trips in both directions,
    drops self-loops (a group of self-loops alone is the empty graph) and is
    clipped at c_w; when c_w is None the maximum observed count is used (no
    clipping). Rows follow the sorted keys (doy_len, day, hour), at _time_angles.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 regions")
    trips = _checked_trips(trips, n_nodes)
    if not len(trips):
        raise EmptyDatasetError("no trip groups to aggregate")
    # one int64 key a row, sorting as (doy_len, day, hour) does: day < 367, hour < 24
    _, first, group = np.unique((trips[:, 2] * 367 + trips[:, 1]) * 24 + trips[:, 0],
                                return_index=True, return_inverse=True)
    counts = np.zeros((len(first), n_nodes, n_nodes))
    np.add.at(counts, (group, trips[:, 3] - 1, trips[:, 4] - 1), 1.0)
    iu, ju = np.triu_indices(n_nodes, 1)
    edges = counts[:, iu, ju] + counts[:, ju, iu]  # self-loops sit on the unread diagonal
    if c_w is None:
        c_w = float(edges.max()) or 1.0  # an edgeless sample still needs a positive cap
    space = GraphLaplacianSpace(n_nodes, c_w)
    return Dataset(space, _time_angles(trips[first]),
                   space.edge_weights_to_laplacian(np.minimum(edges, space.c_w)))
