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
