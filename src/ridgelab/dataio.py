"""Serialization plumbing: grids, CSV files, datasets, run metadata.

Numeric CSV cells use the shortest round-trip representation of the
64-bit float (repr), so emitted files are byte-stable and re-parse with
zero loss. Array payloads in JSON are base64-encoded little-endian
float64 in column-major order with explicit shapes.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import MISSING
from typing import Iterable, Sequence

import numpy as np

from ._version import __version__
from .errors import InputError, UsageError, as_cast, check_size, choice, dimension, integer
from .errors import read_object, reals
from .regress import Dataset
from .spectrum import SignalVector, model_from_json


def parse_grid(spec: str) -> np.ndarray:
    """Parse "a:b:count" into the inclusive uniform grid of count points;
    count is at most MAX_DIM, checked before the grid is allocated."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must look like a:b:count, got {spec!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        count = check_size(dimension(int(parts[2])), "grid count")
    except (ValueError, InputError) as exc:
        raise UsageError(f"malformed grid spec {spec!r}: {exc}") from exc
    if not (np.isfinite(a) and np.isfinite(b)):
        raise UsageError(f"grid endpoints must be finite, got {spec!r}")
    if a > b:
        raise UsageError(f"grid start {a} exceeds end {b}")
    if count == 1:
        if a != b:
            raise UsageError("a single-point grid requires a == b")
        return np.array([a])
    return np.linspace(a, b, count)


def eta_grid(value) -> np.ndarray:
    """The cast of a config's eta_grid: an "a:b:count" string or a list of reals."""
    return as_cast(parse_grid)(value) if isinstance(value, str) else reals(value)


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], seed=None) -> None:
    lines = []
    if seed is not None:
        lines.append(f"# seed={int(seed)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {
        "dtype": "float64",
        "order": "F",
        "shape": list(arr.shape),
        "data": base64.b64encode(np.asfortranarray(arr).tobytes(order="F")).decode(
            "ascii"
        ),
    }


def _shape(dims) -> tuple[int, ...]:
    if not isinstance(dims, (list, tuple)):
        raise ValueError(f"expected a list of dimensions, got {dims!r}")
    shape = tuple(integer(d) for d in dims)
    if any(d < 0 for d in shape):
        raise ValueError(f"dimensions must be nonnegative, got {dims}")
    return shape


def _float64_payload(data) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8")


# array payload key -> (cast, default); encode_array writes exactly these keys
_PAYLOAD_KEYS = {"dtype": (choice("float64"), MISSING), "order": (choice("F"), MISSING),
                 "shape": (_shape, MISSING), "data": (_float64_payload, MISSING)}


def decode_array(obj: dict) -> np.ndarray:
    fields = read_object(obj, _PAYLOAD_KEYS, "array payload", nested=True)
    shape, flat = fields["shape"], fields["data"]
    expected = math.prod(shape)  # a Python int, which cannot wrap as np.prod's int64 does
    if flat.size != expected:
        raise InputError(
            f"array payload has {flat.size} values, shape {shape} needs {expected}"
        )
    return np.reshape(flat, shape, order="F").copy()


def dataset_to_json(data: Dataset) -> dict:
    out = {
        "x": encode_array(data.x),
        "y": encode_array(data.y),
        "model": data.model.to_json(),
    }
    if data.mu0 is not None:
        out["mu0"] = encode_array(data.mu0.coords)
    if data.xi is not None:
        out["xi"] = encode_array(data.xi)
    return out


# decode_array as a cast, so that a malformed payload names its key
payload = as_cast(decode_array)
# dataset key -> (cast, default); the model comes first, so that a bad one
# is refused before the arrays are decoded
_DATASET_KEYS = {
    "model": (model_from_json, MISSING),
    "x": (payload, MISSING),
    "y": (payload, MISSING),
    "mu0": (as_cast(lambda value: SignalVector(decode_array(value))), None),
    "xi": (payload, None),
}


def dataset_from_json(obj: dict) -> Dataset:
    return Dataset(**read_object(obj, _DATASET_KEYS, "dataset"))


def load_json(path) -> dict:
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def write_run_meta(out_dir, argv: list[str], config: dict, outputs: list[str]) -> None:
    """Record the resolved config and the argv that reproduces the run."""
    meta = {
        "version": __version__,
        "rerun_argv": list(argv),
        "config": config,
        "outputs": sorted(outputs),
    }
    path = os.path.join(out_dir, "run_meta.json")
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
