"""On-disk checkpoint blobs, and the field checks of config dataclasses.

Layout: one line of canonical JSON (sorted keys, no whitespace) describing the
schema version, free-form metadata, and an ordered array manifest; then a
newline; then each array's raw little-endian bytes concatenated in manifest
order. Reading back yields bit-identical arrays, so writing the same state
twice produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import fields
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class CheckpointError(RuntimeError):
    pass


def _canonical_dtype(arr: np.ndarray) -> str:
    if arr.dtype.kind == "f":
        return "<f8"
    if arr.dtype.kind in "iu":
        return "<i8"
    raise CheckpointError(f"unsupported array dtype: {arr.dtype}")


def write_blob(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """`arrays` is written in sorted-name order; meta must be JSON-safe."""
    manifest = []
    payloads = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        code = _canonical_dtype(arr)
        arr = np.ascontiguousarray(arr.astype(_DTYPES[code], copy=False))
        manifest.append({"dtype": code, "name": name, "shape": list(arr.shape)})
        payloads.append(arr.tobytes())
    header = {"arrays": manifest, "meta": meta, "schema": SCHEMA_VERSION}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header_bytes)
        fh.write(b"\n")
        for blob in payloads:
            fh.write(blob)


def read_blob(path):
    """Returns (meta, arrays). Raises CheckpointError on any malformation."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError("missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"bad header: {err}") from err
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(
            f"schema version mismatch: file has {header.get('schema')!r}, "
            f"reader supports {SCHEMA_VERSION}"
        )
    manifest, meta = require(header, "arrays", "meta")
    if not isinstance(manifest, list) or not isinstance(meta, dict):
        raise CheckpointError("header needs an 'arrays' list and a 'meta' object")
    arrays: dict[str, np.ndarray] = {}
    offset = nl + 1
    for entry in manifest:
        name, code, shape = require(entry, "name", "dtype", "shape")
        if not (
            isinstance(name, str) and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise CheckpointError(f"bad manifest entry {entry!r}")
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise CheckpointError(f"unsupported dtype in manifest: {code!r}")
        shape = tuple(shape)
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * dtype.itemsize
        chunk = raw[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated payload for array {name}")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError("trailing bytes after last array")
    return meta, arrays


def require(record, *keys: str) -> list:
    """The values of `keys` in `record`, a blob's header, manifest entry,
    meta or arrays; CheckpointError when `record` is not a dict or lacks one."""
    missing = [k for k in keys if k not in record] if isinstance(record, dict) else list(keys)
    if missing:
        raise CheckpointError(f"checkpoint entry lacks {', '.join(missing)}")
    return [record[k] for k in keys]


def config_from(cls, config):
    """`cls(**config)` for a checkpoint's config dataclass `cls`;
    CheckpointError when `config` is not an object, has a key `cls` lacks or
    holds a value `cls` rejects."""
    if not isinstance(config, dict):
        raise CheckpointError(f"checkpoint config is not an object: {config!r}")
    unknown = sorted(set(config) - {f.name for f in fields(cls)})
    if unknown:
        raise CheckpointError(f"unknown checkpoint config keys: {', '.join(unknown)}")
    try:
        return cls(**config)
    except ValueError as err:
        raise CheckpointError(f"bad checkpoint config: {err}") from err


_RULES = {  # kind: (test, what a value of that kind must be)
    "count": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1, "a positive integer"),
    "size": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0, "an integer >= 0"),
    "rate": (lambda v: isinstance(v, numbers.Real) and 0.0 <= v < math.inf, "finite and >= 0"),
    "positive": (lambda v: isinstance(v, numbers.Real) and 0.0 < v < math.inf, "finite and > 0"),
    "nonnegative": (lambda v: isinstance(v, numbers.Real) and 0.0 <= v, ">= 0"),
    "share": (lambda v: isinstance(v, numbers.Real) and 0.0 <= v < 1.0, "in [0, 1)"),
    "unit": (lambda v: isinstance(v, numbers.Real) and 0.0 <= v <= 1.0, "in [0, 1]"),
    "scale": (lambda v: isinstance(v, numbers.Real) and 0.0 < v <= 1.0, "in (0, 1]"),
}


def check_fields(config, kind: str, *names: str) -> None:
    """ValueError naming the first field of `names` in the config dataclass
    `config` whose value is not of `kind` (see `_RULES`); None passes."""
    for name in names:
        check_value(name, getattr(config, name), kind)


def check_value(name: str, value, kind: str) -> None:
    """ValueError naming `name` when `value` is not of `kind` (see
    `_RULES`); None passes."""
    test, what = _RULES[kind]
    if value is not None and not test(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
