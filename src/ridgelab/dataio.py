"""Serialization plumbing: grids, CSV files, datasets, run metadata.

Numeric CSV cells use the shortest round-trip representation of the
64-bit float (repr), so emitted files are byte-stable and re-parse with
zero loss. Array payloads in JSON are base64-encoded little-endian
float64 in column-major order with explicit shapes.
"""

from __future__ import annotations

import base64
import json
import os
from typing import Iterable, Sequence

import numpy as np

from ._version import __version__
from .errors import InputError, UsageError, coerce, integer
from .regress import Dataset
from .spectrum import CovarianceModel, SignalVector, model_from_json


def parse_grid(spec: str) -> np.ndarray:
    """Parse "a:b:count" into the inclusive uniform grid of count points."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must look like a:b:count, got {spec!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"malformed grid spec {spec!r}: {exc}") from exc
    if not (np.isfinite(a) and np.isfinite(b)):
        raise UsageError(f"grid endpoints must be finite, got {spec!r}")
    if a > b:
        raise UsageError(f"grid start {a} exceeds end {b}")
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {count}")
    if count == 1:
        if a != b:
            raise UsageError("a single-point grid requires a == b")
        return np.array([a])
    return np.linspace(a, b, count)


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


def read_csv(path) -> tuple[list[str], list[list]]:
    """Read a CSV written by write_csv; numeric cells come back as floats."""
    with open(path, "r", newline="") as fh:
        raw = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    raw = [line for line in raw if line != ""]
    if not raw:
        raise InputError(f"{path} has no header row")
    header = raw[0].split(",")
    rows = []
    for line in raw[1:]:
        cells = []
        for tok in line.split(","):
            if tok == "":
                cells.append(None)
                continue
            try:
                cells.append(float(tok))
            except ValueError:
                cells.append(tok)
        rows.append(cells)
    return header, rows


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


def decode_array(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError("array payload must be a JSON object")
    missing = {"dtype", "order", "shape", "data"} - set(obj)
    if missing:
        raise InputError(f"array payload missing keys {sorted(missing)}")
    if obj["dtype"] != "float64" or obj["order"] != "F":
        raise InputError("array payload must be column-major float64")
    shape = coerce(_shape, obj["shape"], "array shape")
    flat = coerce(_float64_payload, obj["data"], "array data")
    expected = int(np.prod(shape)) if shape else 1
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


def dataset_from_json(obj: dict) -> Dataset:
    if not isinstance(obj, dict):
        raise InputError("dataset must be a JSON object")
    unknown = set(obj) - {"x", "y", "model", "mu0", "xi"}
    if unknown:
        raise InputError(f"unknown dataset keys: {sorted(unknown)}")
    for key in ("x", "y", "model"):
        if key not in obj:
            raise InputError(f"dataset is missing {key!r}")
    mu0 = None
    if "mu0" in obj:
        mu0 = SignalVector(decode_array(obj["mu0"]))
    xi = obj.get("xi")
    return Dataset(
        x=decode_array(obj["x"]),
        y=decode_array(obj["y"]),
        model=model_from_json(obj["model"]),
        mu0=mu0,
        xi=None if xi is None else decode_array(xi),
    )


def load_json(path) -> dict:
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
