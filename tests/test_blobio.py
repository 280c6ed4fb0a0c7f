import json

import numpy as np
import pytest

from viewocc import blobio
from viewocc.errors import ContractViolation


def test_dotted_prefixes_name_distinct_blobs(tmp_path):
    first = {"cam.0": np.arange(6.0).reshape(2, 3), "mask": np.array([True, False])}
    second = {"cam.0": -np.arange(4.0), "ids": np.arange(3, dtype=np.int64)}
    blobio.write_blob(tmp_path / "frame.1", first, {"frame": 1})
    blobio.write_blob(tmp_path / "frame.2", second, {"frame": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "frame.1.bin", "frame.1.json", "frame.2.bin", "frame.2.json"]
    for prefix, arrays, frame in (("frame.1", first, 1), ("frame.2", second, 2)):
        back, meta = blobio.read_blob(tmp_path / prefix)
        assert meta == {"frame": frame}
        assert sorted(back) == sorted(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            np.testing.assert_array_equal(back[name], arr)


@pytest.mark.parametrize("field, value", [
    ("dtype", "float16"), ("dtype", ["float64"]), ("shape", [2, -3]), ("shape", [2, 2.5]),
    ("shape", 6), ("nbytes", 40), ("offset", -8), ("offset", 8), ("offset", True),
])
def test_read_blob_rejects_header_that_does_not_fit_the_data(tmp_path, field, value):
    blobio.write_blob(tmp_path / "b", {"x": np.arange(6.0).reshape(2, 3)})
    path = tmp_path / "b.json"
    header = json.loads(path.read_text())
    header["arrays"]["x"][field] = value
    path.write_text(json.dumps(header))
    with pytest.raises(ContractViolation):
        blobio.read_blob(tmp_path / "b")


def _tobytes_blob(arrays: dict, meta: dict) -> tuple[str, bytes]:
    """The header text and data bytes write_blob must produce, with each
    array's bytes copied out by tobytes()."""
    header = {"meta": meta, "arrays": {}}
    chunks, offset = [], 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes(order="C")
        header["arrays"][name] = {"dtype": str(arr.dtype), "shape": list(arr.shape),
                                  "offset": offset, "nbytes": len(raw)}
        chunks.append(raw)
        offset += len(raw)
    return json.dumps(header, indent=2, sort_keys=True) + "\n", b"".join(chunks)


def test_write_blob_bytes_equal_the_tobytes_form(tmp_path):
    grid = np.arange(12.0).reshape(3, 4) - 5.5
    arrays = {
        "float64": grid,
        "int64": np.arange(-3, 4, dtype=np.int64),
        "uint8": np.arange(250, 256, dtype=np.uint8),
        "bool": np.array([[True, False, True]]),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
        "empty_int": np.zeros(0, dtype=np.int64),
        "transposed": grid.T,
        "strided": np.arange(20, dtype=np.int64)[::3],
    }
    meta = {"frame": 3}
    blobio.write_blob(tmp_path / "b", arrays, meta)
    want_json, want_bin = _tobytes_blob(arrays, meta)
    assert (tmp_path / "b.json").read_text() == want_json
    assert (tmp_path / "b.bin").read_bytes() == want_bin
    back, _ = blobio.read_blob(tmp_path / "b")
    for name, arr in arrays.items():
        np.testing.assert_array_equal(back[name].reshape(np.shape(arr)), arr)
