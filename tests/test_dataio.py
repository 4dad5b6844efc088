"""Grid parsing, CSV round trips, array and dataset serialization."""

import json
import re

import numpy as np
import pytest

from ridgelab import Dataset, Explicit, InputError, Isotropic, SignalVector, UsageError
from ridgelab.dataio import (
    dataset_from_json,
    dataset_to_json,
    decode_array,
    encode_array,
    format_cell,
    load_json,
    parse_grid,
    read_csv,
    write_csv,
    write_run_meta,
)


def test_parse_grid_uniform():
    np.testing.assert_allclose(parse_grid("0:1.5:31"), np.linspace(0.0, 1.5, 31))
    np.testing.assert_array_equal(parse_grid("2:2:1"), [2.0])
    grid = parse_grid("0:1.5:161")
    assert grid.size == 161 and grid[0] == 0.0 and grid[-1] == 1.5


@pytest.mark.parametrize(
    "bad",
    ["0:1", "0:1:2:3", "a:1:5", "0:inf:5", "1:0:5", "0:1:0", "3:4:1", "0:1:1000000000000"],
)
def test_parse_grid_rejects(bad):
    with pytest.raises(UsageError):
        parse_grid(bad)


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell("gcv") == "gcv"
    assert format_cell(True) == "true"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(1 / 3)) == repr(1 / 3)


def test_csv_round_trip_is_lossless(tmp_path):
    path = tmp_path / "table.csv"
    values = [1 / 3, 2.0**-40, 1.5, np.pi]
    rows = [[v, "pred", None] for v in values]
    write_csv(path, ["value", "kind", "note"], rows, seed=42)
    text = path.read_text()
    assert text.startswith("# seed=42\nvalue,kind,note\n")
    header, back = read_csv(path)
    assert header == ["value", "kind", "note"]
    for row, v in zip(back, values):
        assert row[0] == v  # repr round-trips float64 exactly
        assert row[1] == "pred"
        assert row[2] is None


def test_csv_without_seed_comment(tmp_path):
    path = tmp_path / "bare.csv"
    write_csv(path, ["a"], [[1.0]])
    assert path.read_text() == "a\n1.0\n"
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        read_csv(empty)


def test_encode_decode_array_round_trip():
    rng = np.random.default_rng(0)
    for shape in [(3,), (4, 5), (2, 3)]:
        arr = rng.standard_normal(shape)
        obj = encode_array(arr)
        assert obj["dtype"] == "float64" and obj["order"] == "F"
        assert obj["shape"] == list(shape)
        back = decode_array(json.loads(json.dumps(obj)))
        np.testing.assert_array_equal(back, arr)


def test_decode_array_rejects_bad_payloads():
    obj = encode_array(np.ones(3))
    with pytest.raises(InputError):
        decode_array([1, 2, 3])
    with pytest.raises(InputError):
        decode_array({k: v for k, v in obj.items() if k != "shape"})
    with pytest.raises(InputError):
        decode_array({**obj, "dtype": "float32"})
    with pytest.raises(InputError):
        decode_array({**obj, "shape": [4]})
    obj = encode_array(np.ones((4, 8)))
    for bad in (
        {"data": "abc"},  # not base64
        {"shape": [-4, -8]},  # 32 values, negative dimensions
        {"shape": None},
        {"shape": [4.9, 8]},  # would truncate to 4 x 8
    ):
        with pytest.raises(InputError):
            decode_array({**obj, **bad})
    assert decode_array({**obj, "shape": [4.0, 8]}).shape == (4, 8)


@pytest.mark.parametrize("shape", [[4294967296, 4294967296], [2097152, 2097152, 4194304]])
def test_decode_array_refuses_a_shape_whose_size_wraps_int64(shape):
    # each shape has 2^64 entries, which np.prod wrapped to 0 in int64, so an
    # empty payload passed the size check and numpy's reshape raised
    message = f"array payload has 0 values, shape {tuple(shape)} needs {2**64}"
    with pytest.raises(InputError, match=re.escape(message)):
        decode_array({**encode_array(np.ones(0)), "shape": shape, "data": ""})


def test_array_payload_has_exactly_the_encoded_keys():
    obj = encode_array(np.ones(3))
    assert list(obj) == ["dtype", "order", "shape", "data"]
    with pytest.raises(InputError, match=re.escape("unknown array payload keys: ['extra']")):
        decode_array({**obj, "extra": 1})
    with pytest.raises(InputError, match=re.escape("array payload is missing 'order'")):
        decode_array({key: obj[key] for key in ("dtype", "shape", "data")})
    with pytest.raises(InputError, match=re.escape("malformed 'dtype' of array payload")):
        decode_array({**obj, "dtype": "float32"})


def test_dataset_json_round_trip(rng):
    n, m = 6, 4
    model = Isotropic(1.0, n)
    mu0 = SignalVector(rng.standard_normal(n))
    x = rng.standard_normal((m, n))
    xi = rng.standard_normal(m)
    data = Dataset(x=x, y=x @ mu0.coords + xi, model=model, mu0=mu0, xi=xi)
    back = dataset_from_json(json.loads(json.dumps(dataset_to_json(data))))
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.mu0.coords, mu0.coords)
    np.testing.assert_array_equal(back.xi, xi)
    assert back.model.to_json() == model.to_json()

    bare = Dataset(x=x, y=data.y, model=model)
    obj = dataset_to_json(bare)
    assert "mu0" not in obj and "xi" not in obj
    again = dataset_from_json(obj)
    assert again.mu0 is None and again.xi is None

    with pytest.raises(InputError):
        dataset_from_json({"x": obj["x"], "y": obj["y"]})
    with pytest.raises(InputError):
        dataset_from_json({**obj, "extra": 1})


@pytest.mark.parametrize(
    "field, message",
    [
        ("x", "design 'x' holds NaN or inf"),
        ("y", "response 'y' holds NaN or inf"),
        ("xi", "noise vector 'xi' holds NaN or inf"),
        ("mu0", "malformed 'mu0': signal entries must be finite"),
        ("eigenvalues", "eigenvalues of explicit model must lie in [1e-60, 1e+60], got nan"),
        ("basis", "basis columns are not orthonormal"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_nan_in_any_payload_is_an_input_error_naming_the_field(rng, field, message):
    # decode_array reads bits and checks no values; the type that owns each
    # array refuses a NaN and names the field
    n, m = 5, 3
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    model = Explicit(np.linspace(2.0, 1.0, n), basis)
    mu0 = SignalVector(rng.standard_normal(n))
    x = rng.standard_normal((m, n))
    xi = rng.standard_normal(m)
    obj = dataset_to_json(Dataset(x=x, y=x @ mu0.coords + xi, model=model, mu0=mu0, xi=xi))
    obj["model"]["eigenvalues"] = encode_array(model.eigenvalues)
    obj["model"]["basis"] = encode_array(basis)
    owner = obj["model"] if field in ("eigenvalues", "basis") else obj
    bad = decode_array(owner[field])
    bad.flat[1] = np.nan
    owner[field] = encode_array(bad)
    with pytest.raises(InputError) as exc:
        dataset_from_json(json.loads(json.dumps(obj)))
    assert message in str(exc.value)


def test_load_json_errors(tmp_path):
    with pytest.raises(UsageError):
        load_json(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(UsageError):
        load_json(broken)
    # json refuses integers of more than 4300 digits with a plain ValueError
    broken.write_text('{"sigma_sq": 1' + "0" * 5000 + "}")
    with pytest.raises(UsageError, match="is not valid JSON: Exceeds the limit"):
        load_json(broken)
    good = tmp_path / "good.json"
    good.write_text('{"m": 4}')
    assert load_json(good) == {"m": 4}


def test_write_run_meta(tmp_path):
    write_run_meta(
        tmp_path,
        ["ridgelab", "sim", "--config", "c.json"],
        {"m": 4},
        ["b.csv", "a.csv"],
    )
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert set(meta) == {"version", "rerun_argv", "config", "outputs"}
    assert meta["rerun_argv"][1] == "sim"
    assert meta["outputs"] == ["a.csv", "b.csv"]
    assert meta["config"] == {"m": 4}
