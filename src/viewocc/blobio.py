"""Deterministic array containers: a JSON header plus one raw binary blob.

`write_blob(prefix, arrays, meta)` produces `<prefix>.json` and
`<prefix>.bin`, appending to the whole prefix, so `out/frame.1` and
`out/frame.2` name different blobs. Arrays are stored little-endian, C-order,
concatenated in sorted-name order, so identical inputs yield identical bytes.
float64 arrays round-trip bit for bit. `read_blob` checks every header entry
against the data file before reading it, and accepts only the layout
`write_blob` writes: each array right after the one before it, the last
ending at the end of the data file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ContractViolation, open_output

_DTYPES = {"float64": "<f8", "int64": "<i8", "uint8": "|u1", "bool": "|b1"}


def _paths(prefix) -> tuple[Path, Path]:
    return Path(f"{prefix}.json"), Path(f"{prefix}.bin")


def write_blob(prefix, arrays: dict, meta: dict | None = None) -> None:
    json_path, bin_path = _paths(prefix)
    header = {"meta": meta or {}, "arrays": {}}
    chunks = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        key = str(arr.dtype)
        if key not in _DTYPES:
            raise ContractViolation(f"write_blob: unsupported dtype {key} for {name!r}")
        # a contiguous little-endian array's buffer is its bytes: written
        # as it is, with no tobytes() copy
        arr = arr.astype(_DTYPES[key], copy=False)
        header["arrays"][name] = {
            "dtype": key,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        chunks.append(arr)
        offset += arr.nbytes
    with open_output(json_path) as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open_output(bin_path, "wb") as fh:
        for arr in chunks:
            fh.write(arr.data)


# The largest count a file may hold: an int64, so that no count read from a
# file overflows numpy's index or size arithmetic.
MAX_COUNT = 2**63 - 1


# The longest string an error echoes in full.
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """repr(value), but with each integer beyond MAX_COUNT given as its bit
    length and each string longer than _SHOWN_CHARS as its length and first
    characters, so that an error never holds a number of hundreds of digits
    or a whole long string."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_shown, value)) + "]"
    if type(value) is int and abs(value) > MAX_COUNT:
        return f"an integer of {value.bit_length()} bits"
    if isinstance(value, str) and len(value) > _SHOWN_CHARS:
        return f"a string of {len(value)} characters starting {value[:20]!r}"
    return repr(value)


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_COUNT


def count_field(value, name: str) -> int:
    """`value` when `is_count` accepts it; otherwise a ContractViolation
    naming the field, so a file's 2.5 or true is never truncated to a count
    and a file's 10**400 never reaches an allocation."""
    if not is_count(value):
        raise ContractViolation(f"{name} must be an integer from 0 to 2**63 - 1, "
                                f"got {_shown(value)}")
    return value


def number_field(value, name: str) -> float:
    """`value` as a float when it is a finite JSON number; otherwise a
    ContractViolation naming the field, so a file's true or "0.5" is never
    coerced to a number."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:           # an integer beyond the float range
        ok = False
    if not ok:
        raise ContractViolation(f"{name} must be a finite number, got {_shown(value)}")
    return float(value)


def number_entries(values, name: str):
    """`values`, once each of its entries is a JSON number by `number_field`'s
    rule: a boolean, a string or an integer beyond the float range is a
    ContractViolation naming the field. A non-finite float passes, so that
    the caller's array check reports it."""
    for value in values:
        if type(value) is not float:
            number_field(value, name)
    return values


def name_field(value, name: str) -> str:
    """`value` when it is a JSON string; otherwise a ContractViolation naming
    the field, so a file's 10**400 or {"a": [1]} is never copied into a
    report as a name."""
    if not isinstance(value, str):
        raise ContractViolation(f"{name} must be a string, got {_shown(value)}")
    return value


def flag_field(value, name: str) -> bool:
    """`value` when it is a JSON boolean; otherwise a ContractViolation naming
    the field, so a file's "no" is never read as true."""
    if not isinstance(value, bool):
        raise ContractViolation(f"{name} must be true or false, got {_shown(value)}")
    return value


def _read_array(raw: bytes, name: str, spec, start: int) -> np.ndarray:
    """One array of a blob, once its header entry is shown to fit the data
    and to start at `start`, where `write_blob` puts it."""
    spec = spec if isinstance(spec, dict) else {}
    if not isinstance(spec.get("dtype"), str) or spec["dtype"] not in _DTYPES:
        raise ContractViolation(f"read_blob: array {name!r} has no dtype among {sorted(_DTYPES)}")
    shape, offset, nbytes = spec.get("shape"), spec.get("offset"), spec.get("nbytes")
    if not (isinstance(shape, list) and all(is_count(n) for n in shape)):
        raise ContractViolation(f"read_blob: array {name!r} shape {_shown(shape)} is not a "
                                "list of non-negative integers")
    if not (is_count(offset) and is_count(nbytes)):
        raise ContractViolation(f"read_blob: array {name!r} offset and nbytes must be "
                                "non-negative integers")
    dtype = np.dtype(_DTYPES[spec["dtype"]])
    need = math.prod(shape) * dtype.itemsize
    if nbytes != need:
        raise ContractViolation(f"read_blob: array {name!r} has {nbytes} bytes, but shape "
                                f"{shape} of {spec['dtype']} needs {need}")
    if offset != start:
        raise ContractViolation(f"read_blob: array {name!r} starts at byte {offset}, but the "
                                f"arrays before it in name order end at byte {start}")
    if offset + nbytes > len(raw):
        raise ContractViolation(f"read_blob: array {name!r} ends at byte {offset + nbytes}, "
                                f"past the {len(raw)}-byte data file")
    arr = np.frombuffer(raw[offset:offset + nbytes], dtype=dtype)
    return arr.reshape(shape).astype(spec["dtype"], copy=False)


def read_blob(prefix):
    json_path, bin_path = _paths(prefix)
    try:
        with open(json_path) as fh:
            header = json.load(fh)
        raw = bin_path.read_bytes()
    # ValueError also covers bytes that are not UTF-8 and integers too long
    # to convert, which json raises outside JSONDecodeError
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"read_blob: cannot read {prefix}: {exc}") from exc
    specs = header.get("arrays") if isinstance(header, dict) else None
    if not isinstance(specs, dict):
        raise ContractViolation(f"read_blob: {json_path} has no 'arrays' table")
    arrays, end = {}, 0
    for name in sorted(specs):
        arrays[name] = _read_array(raw, name, specs[name], end)
        end += arrays[name].nbytes
    if end != len(raw):
        last = f"array {name!r}" if specs else "an empty array table"
        raise ContractViolation(f"read_blob: {last} ends at byte {end}, but the data file "
                                f"has {len(raw)} bytes")
    return arrays, header.get("meta", {})
